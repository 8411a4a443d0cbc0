(* A scripted raw TCP peer for tests: one real TCP endpoint (A) and one
   peer (B) that hand-crafts segments and captures A's replies.  Shared
   by the conformance suite and the counter/trace parity table, which
   replays the RFC 5961 forgeries below. *)

module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Wire = Packet.Tcp_wire
module Seq = Tcp.Seq

type world = {
  eng : Engine.t;
  a_tcp : Tcp.t;
  a_addr : Addr.t;
  b_ip : Ip.Stack.t;
  b_addr : Addr.t;
  (* Segments captured at B, oldest first. *)
  inbox : Wire.t list ref;
}

let world ?config () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:2 eng in
  let na = Netsim.add_node net "real" in
  let nb = Netsim.add_node net "scripted" in
  ignore (Netsim.add_link net (Netsim.profile "w" ~delay_us:1_000) na nb);
  let a_ip = Ip.Stack.create net na in
  let b_ip = Ip.Stack.create net nb in
  let a_addr = Addr.v 10 0 1 1 and b_addr = Addr.v 10 0 1 2 in
  Ip.Stack.configure_iface a_ip 0 ~addr:a_addr ~prefix_len:24;
  Ip.Stack.configure_iface b_ip 0 ~addr:b_addr ~prefix_len:24;
  let a_tcp = Tcp.create ?config a_ip in
  let inbox = ref [] in
  Ip.Stack.register_proto b_ip Ipv4.Proto.Tcp (fun h payload ->
      match Wire.decode ~src:h.Ipv4.src ~dst:h.Ipv4.dst payload with
      | Ok seg -> inbox := !inbox @ [ seg ]
      | Error _ -> ());
  { eng; a_tcp; a_addr; b_ip; b_addr; inbox }

(* B transmits a raw segment to A. *)
let inject w (seg : Wire.t) =
  let bytes = Wire.encode ~src:w.b_addr ~dst:w.a_addr seg in
  ignore
    (Ip.Stack.send w.b_ip ~proto:Ipv4.Proto.Tcp ~dst:w.a_addr bytes)

let run w = Engine.run ~until:(Engine.now w.eng + 500_000) w.eng

let take w =
  match !(w.inbox) with
  | [] -> None
  | seg :: rest ->
      w.inbox := rest;
      Some seg

let drain w = w.inbox := []

let expect w what pred =
  match take w with
  | None -> Alcotest.failf "expected %s, got nothing" what
  | Some seg ->
      if not (pred seg) then
        Alcotest.failf "expected %s, got %a" what Wire.pp seg;
      seg

(* Drive A's listener by hand: returns (A's conn via accept, our irs=A's
   iss, our iss). *)
let scripted_handshake w ~port =
  let accepted = ref None in
  ignore (Tcp.listen w.a_tcp ~port ~accept:(fun c -> accepted := Some c));
  let iss = 90_000 in
  inject w
    (Wire.make ~seq:iss
       ~flags:(Wire.flags ~syn:true ())
       ~window:8192 ~mss:(Some 1460) ~src_port:5555 ~dst_port:port ());
  run w;
  let synack =
    expect w "SYN-ACK" (fun seg ->
        seg.Wire.flags.Wire.syn && seg.Wire.flags.Wire.ack
        && seg.Wire.ack_n = iss + 1
        && seg.Wire.mss <> None)
  in
  let a_iss = synack.Wire.seq in
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:port ());
  run w;
  (match !accepted with
  | Some c ->
      Alcotest.check Alcotest.bool "established" true (Tcp.state c = Tcp.Established)
  | None -> Alcotest.fail "accept never fired");
  (Option.get !accepted, a_iss, iss)

(* The RFC 5961 forgeries, each aimed at the connection that
   [scripted_handshake w ~port:80] set up ([a_iss] is A's iss, [iss] B's):
   an in-window SYN (§4.2), a RST one past rcv_nxt (§3.2) and an ACK far
   below snd_una - max_wnd (§5.2). *)
let forge_syn w ~a_iss ~iss =
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~syn:true ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ())

let forge_inexact_rst w ~a_iss ~iss =
  inject w
    (Wire.make ~seq:(iss + 2) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~rst:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ())

let forge_stale_ack w ~a_iss ~iss =
  inject w
    (Wire.make ~seq:(iss + 1)
       ~ack_n:(Seq.add a_iss (-200_000))
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ())
