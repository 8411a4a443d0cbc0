(* TCP conformance tests: a scripted peer hand-crafts raw segments and
   asserts the exact wire behaviour of the real endpoint — RST generation
   rules, acceptability checks, handshake field values, duplicate-ACK
   generation, FIN sequencing and TIME-WAIT re-acknowledgment.  This is
   the state machine exercised from the outside, segment by segment. *)

let check = Alcotest.check

module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Wire = Packet.Tcp_wire
module Seq = Tcp.Seq

open Scripted_peer

(* --- RST generation (RFC 793 p.36) ---------------------------------------- *)

let test_syn_to_closed_port_gets_rst () =
  let w = world () in
  inject w
    (Wire.make ~seq:1000 ~flags:(Wire.flags ~syn:true ()) ~window:4096
       ~src_port:4444 ~dst_port:80 ());
  run w;
  ignore
    (expect w "RST+ACK with ack=seq+1" (fun seg ->
         seg.Wire.flags.Wire.rst && seg.Wire.flags.Wire.ack
         && seg.Wire.ack_n = 1001 && seg.Wire.seq = 0))

let test_ack_to_closed_port_gets_rst_at_ack () =
  let w = world () in
  inject w
    (Wire.make ~seq:500 ~ack_n:7777
       ~flags:(Wire.flags ~ack:true ())
       ~src_port:4444 ~dst_port:80 ());
  run w;
  ignore
    (expect w "RST with seq=incoming ack" (fun seg ->
         seg.Wire.flags.Wire.rst && seg.Wire.seq = 7777))

let test_rst_to_closed_port_is_silent () =
  let w = world () in
  inject w
    (Wire.make ~seq:1 ~flags:(Wire.flags ~rst:true ()) ~src_port:1 ~dst_port:2 ());
  run w;
  check Alcotest.bool "no reply to RST" true (take w = None)

let test_bad_checksum_dropped_silently () =
  let w = world () in
  ignore (Tcp.listen w.a_tcp ~port:80 ~accept:(fun _ -> ()));
  let seg =
    Wire.make ~seq:1000 ~flags:(Wire.flags ~syn:true ()) ~src_port:4444
      ~dst_port:80 ()
  in
  let bytes = Wire.encode ~src:w.b_addr ~dst:w.a_addr seg in
  Bytes.set_uint8 bytes 14 (Bytes.get_uint8 bytes 14 lxor 0xff);
  ignore (Ip.Stack.send w.b_ip ~proto:Ipv4.Proto.Tcp ~dst:w.a_addr bytes);
  run w;
  check Alcotest.bool "no response" true (take w = None);
  check Alcotest.int "counted as bad" 1
    (Tcp.instance_stats w.a_tcp).Tcp.bad_segments

let test_scripted_handshake_fields () =
  let w = world () in
  let conn, _, _ = scripted_handshake w ~port:80 in
  check Alcotest.int "peer mss adopted" 1460 (Tcp.mss conn);
  check Alcotest.int "peer window recorded" 8192 (Tcp.snd_wnd conn)

let test_in_order_data_is_acked_and_delivered () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  ignore a_iss;
  let got = Buffer.create 64 in
  Tcp.on_receive conn (fun d -> Buffer.add_bytes got d);
  (* Two in-order segments: the second must trigger an immediate
     cumulative ACK (ack-every-2nd rule). *)
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ~psh:true ())
       ~window:8192 ~payload:(Bytes.of_string "hello ") ~src_port:5555
       ~dst_port:80 ());
  inject w
    (Wire.make ~seq:(iss + 7) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ~psh:true ())
       ~window:8192 ~payload:(Bytes.of_string "world") ~src_port:5555
       ~dst_port:80 ());
  run w;
  check Alcotest.string "delivered in order" "hello world" (Buffer.contents got);
  ignore
    (expect w "cumulative ack" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + 12))

let test_out_of_order_triggers_dup_ack () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  let got = Buffer.create 64 in
  Tcp.on_receive conn (fun d -> Buffer.add_bytes got d);
  drain w;
  (* A segment beyond the expected sequence: A must hold it and emit an
     immediate duplicate ACK for the gap. *)
  inject w
    (Wire.make ~seq:(iss + 11) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~payload:(Bytes.of_string "-tail") ~src_port:5555
       ~dst_port:80 ());
  run w;
  ignore
    (expect w "dup ack at gap" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + 1));
  check Alcotest.string "nothing delivered yet" "" (Buffer.contents got);
  check Alcotest.int "ooo buffered" 1 (Tcp.ooo_segments conn);
  (* Fill the gap: everything must flush in order. *)
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~payload:(Bytes.of_string "head-data-") ~src_port:5555
       ~dst_port:80 ());
  run w;
  check Alcotest.string "flushed in order" "head-data--tail"
    (Buffer.contents got);
  ignore
    (expect w "ack covers both" (fun seg -> seg.Wire.ack_n = iss + 16))

let test_syn_in_established_challenges () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  let closed = ref None in
  Tcp.on_close conn (fun r -> closed := Some r);
  drain w;
  (* RFC 793 p.71 said an in-window SYN aborts the connection — the blind
     teardown vector.  RFC 5961 §4.2 replaces that with a challenge ACK
     and the connection must stay up. *)
  forge_syn w ~a_iss ~iss;
  run w;
  check Alcotest.bool "connection survives" true (!closed = None);
  check Alcotest.bool "still established" true
    (Tcp.state conn = Tcp.Established);
  ignore
    (expect w "challenge ack, not RST" (fun seg ->
         seg.Wire.flags.Wire.ack
         && (not seg.Wire.flags.Wire.rst)
         && seg.Wire.ack_n = iss + 1));
  let st = Tcp.instance_stats w.a_tcp in
  check Alcotest.int "rejection counted" 1 st.Tcp.syn_rejected_in_window;
  check Alcotest.int "challenge counted" 1 st.Tcp.challenge_acks_out

let test_rst_inexact_seq_challenged () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  let closed = ref None in
  Tcp.on_close conn (fun r -> closed := Some r);
  drain w;
  (* A forged RST one past rcv_nxt: in-window, so pre-5961 stacks died
     here.  Now it must only earn a challenge ACK. *)
  forge_inexact_rst w ~a_iss ~iss;
  run w;
  check Alcotest.bool "connection survives" true (!closed = None);
  ignore
    (expect w "challenge ack" (fun seg ->
         seg.Wire.flags.Wire.ack && not seg.Wire.flags.Wire.rst));
  let st = Tcp.instance_stats w.a_tcp in
  check Alcotest.int "rejection counted" 1 st.Tcp.rst_rejected_inexact;
  check Alcotest.int "no reset recorded" 0 st.Tcp.resets_in;
  (* The legitimate case still works: an exact-sequence RST resets. *)
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~rst:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  check Alcotest.bool "exact RST still resets" true (!closed = Some Tcp.Reset)

let test_invalid_ack_dropped_silently () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  drain w;
  (* An ACK far below snd_una - max_wnd (RFC 5961 §5.2): dropped with no
     reply, unlike the too-new case which draws a corrective ACK. *)
  forge_stale_ack w ~a_iss ~iss;
  run w;
  check Alcotest.bool "no reply" true (take w = None);
  check Alcotest.bool "still established" true
    (Tcp.state conn = Tcp.Established);
  check Alcotest.int "drop counted" 1
    (Tcp.instance_stats w.a_tcp).Tcp.dropped_acks_invalid

let test_fin_at_right_window_edge_accepted () =
  (* A tiny receive window makes the right edge reachable in one segment. *)
  let w = world ~config:{ Tcp.default_config with window = 64 } () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  let peer_fin = ref false in
  Tcp.on_peer_fin conn (fun () -> peer_fin := true);
  drain w;
  (* Fill the window to one byte short of the right edge, then send that
     last byte with FIN.  The FIN occupies the sequence number exactly at
     the edge: only a seg_len that counts the FIN (RFC 793 §3.3) accepts
     it.  rcv_window here is A's config window minus buffered bytes. *)
  let wnd = 64 in
  let chunk = Bytes.make (wnd - 1) 'x' in
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~payload:chunk ~src_port:5555 ~dst_port:80 ());
  run w;
  drain w;
  (* Window is now exactly 1 (unread data shrank it); the final byte plus
     FIN ends exactly at the right edge. *)
  inject w
    (Wire.make ~seq:(iss + wnd) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ~fin:true ())
       ~window:8192 ~payload:(Bytes.make 1 'y') ~src_port:5555 ~dst_port:80 ());
  run w;
  check Alcotest.bool "fin consumed" true !peer_fin;
  check Alcotest.bool "close-wait" true (Tcp.state conn = Tcp.Close_wait);
  ignore
    (expect w "ack past the fin" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + wnd + 2))

let test_out_of_window_segment_gets_corrective_ack () =
  let w = world () in
  let _conn, a_iss, iss = scripted_handshake w ~port:80 in
  drain w;
  (* Far outside the receive window: drop + send the current ack. *)
  inject w
    (Wire.make
       ~seq:(Seq.add iss 500_000)
       ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~payload:(Bytes.of_string "noise") ~src_port:5555
       ~dst_port:80 ());
  run w;
  ignore
    (expect w "corrective ack" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + 1))

let test_fin_sequence_and_close_wait () =
  let w = world () in
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  let peer_fin = ref false in
  Tcp.on_peer_fin conn (fun () -> peer_fin := true);
  drain w;
  (* FIN with no data: A acks iss+2 and enters CLOSE-WAIT. *)
  inject w
    (Wire.make ~seq:(iss + 1) ~ack_n:(Seq.add a_iss 1)
       ~flags:(Wire.flags ~fin:true ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  check Alcotest.bool "peer fin seen" true !peer_fin;
  check Alcotest.bool "close-wait" true (Tcp.state conn = Tcp.Close_wait);
  ignore
    (expect w "fin acked" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + 2));
  (* A closes: LAST-ACK, emits its own FIN; we ack it; connection gone. *)
  let closed = ref None in
  Tcp.on_close conn (fun r -> closed := Some r);
  Tcp.close conn;
  run w;
  let fin =
    expect w "A's FIN" (fun seg ->
        seg.Wire.flags.Wire.fin && seg.Wire.seq = Seq.add a_iss 1)
  in
  check Alcotest.bool "last-ack" true (Tcp.state conn = Tcp.Last_ack);
  inject w
    (Wire.make ~seq:(iss + 2)
       ~ack_n:(Seq.add fin.Wire.seq 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  check Alcotest.bool "closed gracefully" true (!closed = Some Tcp.Graceful);
  check Alcotest.int "no connections left" 0 (Tcp.connection_count w.a_tcp)

let test_time_wait_reacks_retransmitted_fin () =
  let w = world () in
  (* Use a tiny MSL so we could observe expiry; here we test the re-ack. *)
  let conn, a_iss, iss = scripted_handshake w ~port:80 in
  drain w;
  (* A initiates the close this time: FIN-WAIT-1. *)
  Tcp.close conn;
  run w;
  let fin =
    expect w "A's FIN" (fun seg -> seg.Wire.flags.Wire.fin)
  in
  ignore a_iss;
  (* Ack A's FIN, then send ours: A should enter TIME-WAIT and ack. *)
  inject w
    (Wire.make ~seq:(iss + 1)
       ~ack_n:(Seq.add fin.Wire.seq 1)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  inject w
    (Wire.make ~seq:(iss + 1)
       ~ack_n:(Seq.add fin.Wire.seq 1)
       ~flags:(Wire.flags ~fin:true ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  check Alcotest.bool "time-wait" true (Tcp.state conn = Tcp.Time_wait);
  drain w;
  (* Retransmit our FIN (as if the ack was lost): A must re-ack. *)
  inject w
    (Wire.make ~seq:(iss + 1)
       ~ack_n:(Seq.add fin.Wire.seq 1)
       ~flags:(Wire.flags ~fin:true ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  ignore
    (expect w "re-ack of retransmitted FIN" (fun seg ->
         seg.Wire.flags.Wire.ack && seg.Wire.ack_n = iss + 2));
  check Alcotest.bool "still time-wait" true (Tcp.state conn = Tcp.Time_wait)

let test_stale_ack_of_unsent_data () =
  let w = world () in
  let _conn, a_iss, iss = scripted_handshake w ~port:80 in
  drain w;
  (* Ack data A never sent: A replies with a plain ack, stays up. *)
  inject w
    (Wire.make ~seq:(iss + 1)
       ~ack_n:(Seq.add a_iss 50_000)
       ~flags:(Wire.flags ~ack:true ())
       ~window:8192 ~src_port:5555 ~dst_port:80 ());
  run w;
  ignore
    (expect w "corrective ack" (fun seg ->
         seg.Wire.flags.Wire.ack && not seg.Wire.flags.Wire.rst))

let () =
  Alcotest.run "tcp-conformance"
    [
      ( "rst-rules",
        [
          Alcotest.test_case "syn to closed port" `Quick
            test_syn_to_closed_port_gets_rst;
          Alcotest.test_case "ack to closed port" `Quick
            test_ack_to_closed_port_gets_rst_at_ack;
          Alcotest.test_case "rst is never answered" `Quick
            test_rst_to_closed_port_is_silent;
          Alcotest.test_case "bad checksum silent" `Quick
            test_bad_checksum_dropped_silently;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "field values" `Quick test_scripted_handshake_fields;
        ] );
      ( "segment-processing",
        [
          Alcotest.test_case "in-order data" `Quick
            test_in_order_data_is_acked_and_delivered;
          Alcotest.test_case "out-of-order dup ack" `Quick
            test_out_of_order_triggers_dup_ack;
          Alcotest.test_case "syn in established" `Quick
            test_syn_in_established_challenges;
          Alcotest.test_case "rst inexact seq" `Quick
            test_rst_inexact_seq_challenged;
          Alcotest.test_case "invalid ack" `Quick
            test_invalid_ack_dropped_silently;
          Alcotest.test_case "fin at window edge" `Quick
            test_fin_at_right_window_edge_accepted;
          Alcotest.test_case "out-of-window" `Quick
            test_out_of_window_segment_gets_corrective_ack;
          Alcotest.test_case "stale ack" `Quick test_stale_ack_of_unsent_data;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "fin sequence" `Quick test_fin_sequence_and_close_wait;
          Alcotest.test_case "time-wait re-ack" `Quick
            test_time_wait_reacks_retransmitted_fin;
        ] );
    ]
