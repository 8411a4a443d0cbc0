module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Udp_wire = Packet.Udp_wire

(* Pooled endpoint state.

   A full Ip.Stack per host is the right tool for a protocol experiment
   and the wrong one for an E17-scale population: each stack is a record
   of hashtables, a reassembly store, and a closure installed as the
   node's frame handler — a web of heap objects per endpoint, almost all
   of it never exercised by a host that only sources and sinks datagrams.

   The pool keeps every per-host datum in parallel arrays (one int slot
   per field per host) and serves *all* pooled hosts' receive traffic
   with a single shared closure, installed as the netsim-wide default
   handler.  Attaching host number 10^5 costs four array cells and one
   index entry; idle hosts cost nothing at all per tick. *)

let proto = 0xE1 (* pool datagrams ride proto 225 end to end *)

type t = {
  net : Netsim.t;
  mutable node : int array;  (* slot -> netsim node *)
  mutable iface : int array;  (* slot -> the host's single iface *)
  mutable addr : int array;  (* slot -> address bits *)
  mutable rx : int array;  (* slot -> datagrams delivered *)
  mutable n : int;
  mutable slot_of_node : int array;  (* node -> slot, -1 = not pooled *)
  mutable tx_total : int;
  mutable rx_total : int;
  mutable rx_stray : int;
      (* frames reaching a pooled host that are not pool datagrams for
         its address: wrong dst, wrong proto, malformed *)
  mutable udp_sink :
    (int ->
    src:Addr.t ->
    src_port:int ->
    dst_port:int ->
    bytes ->
    unit)
    option;
      (* one shared closure, like the receive handler: lets a workload
         give pooled hosts behavior (echo replicas, request/response
         clients) without per-host closures.  UDP only; pool datagrams
         stay count-only. *)
}

let addr_bits a = Int32.to_int (Addr.to_int32 a) land 0xffffffff

(* The one delivery road that decodes a header: the sink wants the
   source address and the UDP payload. *)
let deliver_udp sink slot frame =
  match Ipv4.decode frame with
  | Ok (h, segment) -> (
      match Udp_wire.decode ~src:h.Ipv4.src ~dst:h.Ipv4.dst segment with
      | Ok d ->
          sink slot ~src:h.Ipv4.src ~src_port:d.Udp_wire.src_port
            ~dst_port:d.Udp_wire.dst_port d.Udp_wire.payload
      | Error _ -> ())
  | Error _ -> ()

let receive t ~node ~iface:_ frame =
  if node < Array.length t.slot_of_node then begin
    let slot = Array.unsafe_get t.slot_of_node node in
    if slot >= 0 then begin
      if
        Ipv4.valid frame
        && (let p = Ipv4.peek_proto frame in
            p = proto || p = 17 (* UDP: see [send_udp] *))
        && Ipv4.peek_dst frame = Array.unsafe_get t.addr slot
      then begin
        Array.unsafe_set t.rx slot (Array.unsafe_get t.rx slot + 1);
        t.rx_total <- t.rx_total + 1;
        match t.udp_sink with
        | Some sink when Ipv4.peek_proto frame = 17 ->
            deliver_udp sink slot frame [@fastpath.exempt]
        | Some _ | None -> ()
      end
      else t.rx_stray <- t.rx_stray + 1
    end
  end
[@@fastpath]

let create net =
  let t =
    {
      net;
      node = Array.make 64 0;
      iface = Array.make 64 0;
      addr = Array.make 64 0;
      rx = Array.make 64 0;
      n = 0;
      slot_of_node = Array.make 64 (-1);
      tx_total = 0;
      rx_total = 0;
      rx_stray = 0;
      udp_sink = None;
    }
  in
  Netsim.set_default_handler net
    (Some (fun ~node ~iface frame -> receive t ~node ~iface frame));
  t

let size t = t.n

let grow_to len arr fill =
  let cap = max (2 * Array.length arr) len in
  let arr' = Array.make cap fill in
  Array.blit arr 0 arr' 0 (Array.length arr);
  arr'

let attach t ~node ~iface ~addr =
  if t.n = Array.length t.node then begin
    t.node <- grow_to 0 t.node 0;
    t.iface <- grow_to 0 t.iface 0;
    t.addr <- grow_to 0 t.addr 0;
    t.rx <- grow_to 0 t.rx 0
  end;
  if node >= Array.length t.slot_of_node then
    t.slot_of_node <- grow_to (node + 1) t.slot_of_node (-1);
  let slot = t.n in
  t.node.(slot) <- node;
  t.iface.(slot) <- iface;
  t.addr.(slot) <- addr_bits addr;
  t.slot_of_node.(node) <- slot;
  t.n <- t.n + 1;
  slot

let set_udp_sink t sink = t.udp_sink <- sink
let node t slot = t.node.(slot)
let addr t slot = Addr.of_int32 (Int32.of_int t.addr.(slot))
let rx_count t slot = t.rx.(slot)
let tx_total t = t.tx_total
let rx_total t = t.rx_total
let rx_stray t = t.rx_stray

let send t slot ~dst payload =
  let h =
    Ipv4.make_header ~proto:(Ipv4.Proto.Other proto) ~src:(addr t slot) ~dst
      ()
  in
  let frame = Ipv4.encode h ~payload in
  t.tx_total <- t.tx_total + 1;
  Netsim.send t.net t.node.(slot) ~iface:t.iface.(slot) frame

(* Real UDP off a pooled host — the port-churn generator flow-accounting
   benchmarks need (pool datagrams are portless, so a pool pair is one
   flow no matter how many it sends; UDP gives 2^32 flows per pair).
   Both headers are written in place around the one copy of the payload. *)
let send_udp t slot ~dst ~src_port ~dst_port payload =
  let src = addr t slot in
  let payload_len = Bytes.length payload in
  let off = Ipv4.header_size + Udp_wire.header_size in
  let frame = Bytes.create (off + payload_len) in
  Bytes.blit payload 0 frame off payload_len;
  ignore
    (Udp_wire.encode_into ~src ~dst ~src_port ~dst_port ~payload_len frame
       ~pos:Ipv4.header_size);
  Ipv4.encode_into (Ipv4.make_header ~proto:Ipv4.Proto.Udp ~src ~dst ()) frame;
  t.tx_total <- t.tx_total + 1;
  Netsim.send t.net t.node.(slot) ~iface:t.iface.(slot) frame
