(* Tests for the observability subsystem (lib/trace): flight-recorder ring
   semantics, class masking, the pcap writer's exact bytes, the metrics
   registry, the mutable accounting ledger, and — the regression the
   subsystem exists to prevent — that every drop reason and TCP guard
   kind moves its counter by exactly as many events as it records. *)

module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* The recorder is global state: every test that enables it must clean up,
   including on failure, or it poisons the next test. *)
let with_trace ?capacity ?mask f =
  Trace.enable ?capacity ?mask ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    f

(* --- ring buffer ---------------------------------------------------------- *)

let prop_ring_wrap =
  QCheck.Test.make ~count:200 ~name:"ring wrap: length/emitted/overwritten/seq"
    QCheck.(pair (int_range 1 64) (int_range 0 200))
    (fun (cap, k) ->
      Trace.enable ~capacity:cap ~mask:Trace.Cls.timer ();
      Trace.set_now (fun () -> 0);
      Fun.protect
        ~finally:(fun () ->
          Trace.disable ();
          Trace.clear ())
        (fun () ->
          for i = 0 to k - 1 do
            Trace.emit (Trace.Event.Timer_arm { at = i })
          done;
          let held = Trace.length () in
          let ok_counts =
            held = min k cap
            && Trace.emitted () = k
            && Trace.overwritten () = max 0 (k - cap)
            && Trace.capacity () = cap
          in
          (* Oldest first; seqs contiguous, ending at k-1; each event's
             payload matches its seq (nothing was scrambled by wrapping). *)
          let entries = Trace.entries () in
          let ok_order =
            List.for_all2
              (fun (e : Trace.entry) want_seq ->
                e.seq = want_seq
                &&
                match e.event with
                | Trace.Event.Timer_arm { at } -> at = want_seq
                | _ -> false)
              entries
              (List.init held (fun i -> k - held + i))
          in
          ok_counts && ok_order))

let test_clear_resets () =
  with_trace ~capacity:8 ~mask:Trace.Cls.timer (fun () ->
      Trace.set_now (fun () -> 0);
      for i = 0 to 20 do
        Trace.emit (Trace.Event.Timer_arm { at = i })
      done;
      Trace.clear ();
      check Alcotest.int "length" 0 (Trace.length ());
      check Alcotest.int "emitted" 0 (Trace.emitted ());
      check Alcotest.int "overwritten" 0 (Trace.overwritten ());
      Trace.emit (Trace.Event.Timer_arm { at = 99 });
      match Trace.entries () with
      | [ { seq = 0; event = Trace.Event.Timer_arm { at = 99 }; _ } ] -> ()
      | _ -> Alcotest.fail "seq restarts at 0 after clear")

let test_mask_filtering () =
  with_trace ~mask:Trace.Cls.link (fun () ->
      check Alcotest.bool "want link" true (Trace.want Trace.Cls.link);
      check Alcotest.bool "want ip" false (Trace.want Trace.Cls.ip);
      (* Unguarded emit of a disabled class must also be discarded: the
         recorder re-checks the event's own class. *)
      Trace.emit
        (Trace.Event.Ip_drop
           { node = 1; src = Addr.any; dst = Addr.any;
             reason = Trace.Event.No_route });
      Trace.emit
        (Trace.Event.Link_drop
           { link = 0; dir = 0; len = 10; reason = Trace.Event.Queue_full });
      check Alcotest.int "only link recorded" 1 (Trace.length ());
      Trace.set_mask Trace.Cls.all;
      Trace.emit
        (Trace.Event.Ip_drop
           { node = 1; src = Addr.any; dst = Addr.any;
             reason = Trace.Event.No_route });
      check Alcotest.int "ip recorded after set_mask" 2 (Trace.length ());
      check Alcotest.int "drops by reason" 1
        (List.length (Trace.drops ~reason:Trace.Event.No_route ())))

let test_disabled_is_inert () =
  Trace.disable ();
  Trace.clear ();
  check Alcotest.bool "want" false (Trace.want Trace.Cls.all);
  Trace.emit (Trace.Event.Timer_arm { at = 1 });
  check Alcotest.int "nothing recorded" 0 (Trace.emitted ())

(* --- pcap ----------------------------------------------------------------- *)

(* Golden bytes, written out by hand from the libpcap 2.4 format spec so
   the writer is checked against the format, not against itself. *)
let test_pcap_golden () =
  let p = Trace.Pcap.create ~snaplen:8 () in
  Trace.Pcap.add p ~ts_us:3_000_007 (Bytes.of_string "ABCD");
  Trace.Pcap.add p ~ts_us:4_500_000 (Bytes.of_string "0123456789ab");
  let le32 v =
    String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
  in
  let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff)) in
  let expected =
    String.concat ""
      [ "\xd4\xc3\xb2\xa1" (* magic 0xa1b2c3d4, little-endian *);
        le16 2; le16 4 (* version 2.4 *);
        le32 0 (* thiszone *);
        le32 0 (* sigfigs *);
        le32 8 (* snaplen *);
        le32 101 (* LINKTYPE_RAW *);
        (* record 1: 4 bytes, untruncated *)
        le32 3; le32 7 (* 3.000007s *);
        le32 4; le32 4;
        "ABCD";
        (* record 2: 12 bytes truncated to the 8-byte snaplen *)
        le32 4; le32 500_000;
        le32 8; le32 12;
        "01234567" ]
  in
  check Alcotest.int "packet count" 2 (Trace.Pcap.packet_count p);
  check Alcotest.int "byte length" (String.length expected)
    (Trace.Pcap.byte_length p);
  check Alcotest.string "exact bytes" expected (Trace.Pcap.to_string p)

let test_pcap_on_link () =
  (* A tap wired through Netsim captures exactly the frames that complete
     transmission, stamped with the virtual clock. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let a = Netsim.add_node net "a" in
  let b = Netsim.add_node net "b" in
  let l = Netsim.add_link net (Netsim.profile "test") a b in
  Netsim.set_handler net b (fun ~iface:_ _ -> ());
  let p = Trace.Pcap.create () in
  Netsim.set_link_tap net l
    (Some (fun ~dir:_ frame -> Trace.Pcap.add p ~ts_us:(Engine.now eng) frame));
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "datagram-1"));
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "datagram-2"));
  Engine.run eng;
  check Alcotest.int "both frames captured" 2 (Trace.Pcap.packet_count p);
  check Alcotest.int "bytes = header + 2 records"
    (Trace.Pcap.header_len + (2 * (Trace.Pcap.record_header_len + 10)))
    (Trace.Pcap.byte_length p)

(* --- counters vs trace events --------------------------------------------- *)

(* Counter/event parity for every drop reason and every TCP guard kind:
   the counters say how often, the events say which datagram, and the
   two must agree.  One row per reason: a scenario that builds a world
   and returns the metrics source holding the reason's counter plus the
   action that provokes the drop.  The row passes when the action moves
   the counter, and moves it by exactly the number of events recorded. *)

type row = {
  name : string;
  key : string;  (** Metrics key of the row's counter. *)
  traced : unit -> int;  (** The row's events in the recorder. *)
  scenario :
    unit -> (unit -> (string * Trace.Metrics.value) list) * (unit -> unit);
}

let drop reason scenario =
  { name = Trace.Event.drop_reason_to_string reason;
    key = Trace.Event.drop_reason_counter reason;
    traced = (fun () -> List.length (Trace.drops ~reason ()));
    scenario }

let guard kind ~key scenario =
  { name = Trace.Event.tcp_guard_kind_to_string kind;
    key;
    traced =
      (fun () ->
        Trace.count (function
          | Trace.Event.Tcp_guard g -> g.kind = kind
          | _ -> false));
    scenario }

let parity row () =
  with_trace (fun () ->
      let source, provoke = row.scenario () in
      let counter () =
        match List.assoc_opt row.key (source ()) with
        | Some (Trace.Metrics.Int n) -> n
        | _ -> Alcotest.failf "no counter %s in the metrics source" row.key
      in
      Trace.clear ();
      let before = counter () in
      provoke ();
      let delta = counter () - before in
      check Alcotest.bool "scenario provokes the drop" true (delta > 0);
      check Alcotest.int "counter delta = traced events" delta (row.traced ()))

let parity_case row = Alcotest.test_case row.name `Quick (parity row)

let two_hosts ?(profile = Netsim.profile "test") () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let na = Netsim.add_node net "a" in
  let nb = Netsim.add_node net "b" in
  ignore (Netsim.add_link net profile na nb);
  let a = Ip.Stack.create net na in
  let b = Ip.Stack.create net nb in
  Ip.Stack.configure_iface a 0 ~addr:(Addr.v 10 0 1 1) ~prefix_len:24;
  Ip.Stack.configure_iface b 0 ~addr:(Addr.v 10 0 1 2) ~prefix_len:24;
  (eng, a, b)

let datagram ?ttl ?more_fragments ~src ~dst text =
  Ipv4.encode
    (Ipv4.make_header ?ttl ?more_fragments ~proto:(Ipv4.Proto.Other 99) ~src
       ~dst ())
    ~payload:(Bytes.of_string text)

let no_route () =
  let _eng, a, _b = two_hosts () in
  ( Ip.Stack.metrics_items a,
    fun () ->
      match
        Ip.Stack.send a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 10 9 9 9)
          (Bytes.of_string "x")
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "send off-subnet with no route succeeded" )

let no_proto () =
  let eng, a, b = two_hosts () in
  ( Ip.Stack.metrics_items b,
    fun () ->
      (match
         Ip.Stack.send a ~proto:(Ipv4.Proto.Other 77) ~dst:(Addr.v 10 0 1 2)
           (Bytes.of_string "nobody home")
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send failed");
      Engine.run eng )

let malformed () =
  let _eng, a, _b = two_hosts () in
  ( Ip.Stack.metrics_items a,
    fun () -> Ip.Stack.receive a ~iface:0 (Bytes.make 6 'z') )

let not_forwarding () =
  let _eng, a, _b = two_hosts () in
  ( Ip.Stack.metrics_items a,
    fun () ->
      Ip.Stack.receive a ~iface:0
        (datagram ~src:(Addr.v 10 0 1 2) ~dst:(Addr.v 10 0 9 9)
           "transit at a host") )

(* A transit datagram arrives at a gateway with TTL 1 from a source the
   gateway has no route back to: the TTL drop is counted and traced, and
   so is the time-exceeded ICMP that could not be sent. *)
let ttl_from_nowhere () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let ng = Netsim.add_node net "g" in
  let nx = Netsim.add_node net "x" in
  let ny = Netsim.add_node net "y" in
  ignore (Netsim.add_link net (Netsim.profile "test") ng nx);
  ignore (Netsim.add_link net (Netsim.profile "test") ng ny);
  let g = Ip.Stack.create ~forwarding:true net ng in
  Ip.Stack.configure_iface g 0 ~addr:(Addr.v 10 0 1 1) ~prefix_len:24;
  Ip.Stack.configure_iface g 1 ~addr:(Addr.v 10 0 2 1) ~prefix_len:24;
  ( Ip.Stack.metrics_items g,
    fun () ->
      Ip.Stack.receive g ~iface:0
        (datagram ~ttl:1 ~src:(Addr.v 192 168 5 5) ~dst:(Addr.v 10 0 2 9)
           "dying breath") )

let df_needed () =
  let _eng, a, _b =
    two_hosts ~profile:(Netsim.profile "narrow" ~mtu:576) ()
  in
  ( Ip.Stack.metrics_items a,
    fun () ->
      match
        Ip.Stack.send a ~dont_fragment:true ~proto:(Ipv4.Proto.Other 99)
          ~dst:(Addr.v 10 0 1 2) (Bytes.make 1000 'd')
      with
      | Error `Too_big -> ()
      | Error `No_route | Ok () ->
          Alcotest.fail "DF datagram over the MTU sent" )

(* A lone first fragment whose siblings never come: the buffer expires
   once the engine runs past the reassembly timeout. *)
let reassembly_timeout () =
  let eng, _a, b = two_hosts () in
  ( Ip.Stack.metrics_items b,
    fun () ->
      Ip.Stack.receive b ~iface:0
        (datagram ~more_fragments:true ~src:(Addr.v 10 0 1 1)
           ~dst:(Addr.v 10 0 1 2) "first of many");
      Engine.run eng )

let one_link profile =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let a = Netsim.add_node net "a" in
  let b = Netsim.add_node net "b" in
  let l = Netsim.add_link net profile a b in
  Netsim.set_handler net b (fun ~iface:_ _ -> ());
  (eng, net, a, l)

let send_frames ?(n = 1) ?(len = 100) profile =
  let eng, net, a, l = one_link profile in
  ( Netsim.link_metrics_items net l,
    fun () ->
      for _ = 1 to n do
        ignore (Netsim.send net a ~iface:0 (Bytes.make len 'q'))
      done;
      Engine.run eng )

let link_down () =
  let _eng, net, a, l = one_link (Netsim.profile "test") in
  ( Netsim.link_metrics_items net l,
    fun () ->
      Netsim.set_link_up net l false;
      check Alcotest.bool "send on down link fails" false
        (Netsim.send net a ~iface:0 (Bytes.make 10 'd')) )

(* An established connection with the scripted peer, then one forgery. *)
let forged forge () =
  let w = Scripted_peer.world () in
  let _conn, a_iss, iss = Scripted_peer.scripted_handshake w ~port:80 in
  ( Tcp.metrics_items w.Scripted_peer.a_tcp,
    fun () ->
      forge w ~a_iss ~iss;
      Scripted_peer.run w )

let drop_rows =
  let open Trace.Event in
  [ drop No_route no_route;
    drop No_proto no_proto;
    drop Malformed malformed;
    drop Not_forwarding not_forwarding;
    drop Ttl_expired ttl_from_nowhere;
    drop Unroutable_icmp ttl_from_nowhere;
    drop Df_needed df_needed;
    drop Reassembly_timeout reassembly_timeout;
    drop Queue_full
      (fun () ->
        send_frames ~n:5 ~len:1000
          (Netsim.profile "tiny" ~bandwidth_bps:1_000_000 ~queue_capacity:1));
    drop Link_down link_down;
    drop Link_loss (fun () -> send_frames (Netsim.profile "lossy" ~loss:1.0));
    drop Link_mtu
      (fun () -> send_frames ~len:1000 (Netsim.profile "narrow" ~mtu:576)) ]

let guard_rows =
  let open Trace.Event in
  [ guard Guard_rst_inexact ~key:"rst_rejected_inexact"
      (forged Scripted_peer.forge_inexact_rst);
    guard Guard_syn_in_window ~key:"syn_rejected_in_window"
      (forged Scripted_peer.forge_syn);
    guard Guard_ack_invalid ~key:"acks_dropped_invalid"
      (forged Scripted_peer.forge_stale_ack);
    guard Guard_challenge_ack ~key:"challenge_acks_out"
      (forged Scripted_peer.forge_syn) ]

(* --- timers ---------------------------------------------------------------- *)

let test_timer_events () =
  with_trace ~mask:Trace.Cls.timer (fun () ->
      let eng = Engine.create () in
      let fired = ref false in
      let _h = Engine.Timer.start eng ~after:250 (fun () -> fired := true) in
      Engine.run eng;
      check Alcotest.bool "timer ran" true !fired;
      check Alcotest.int "one arm" 1
        (Trace.count (function Trace.Event.Timer_arm _ -> true | _ -> false));
      check Alcotest.int "one fire" 1
        (Trace.count (function Trace.Event.Timer_fire _ -> true | _ -> false));
      match
        List.filter
          (fun (e : Trace.entry) ->
            match e.event with Trace.Event.Timer_fire _ -> true | _ -> false)
          (Trace.entries ())
      with
      | [ { t_us; event = Trace.Event.Timer_fire { at }; _ } ] ->
          check Alcotest.int "fired at its deadline" 250 at;
          check Alcotest.int "stamped with the virtual clock" 250 t_us
      | _ -> Alcotest.fail "expected exactly one fire entry")

(* --- metrics --------------------------------------------------------------- *)

let test_metrics_owned_and_find () =
  let m = Trace.Metrics.create () in
  let hits = Trace.Metrics.counter m "hits" in
  Trace.Metrics.incr hits;
  Trace.Metrics.incr ~by:2 hits;
  Trace.Metrics.gauge m "depth" (fun () -> 4.5);
  let h = Trace.Metrics.histogram m "rtt" in
  Trace.Metrics.observe h 10.0;
  Trace.Metrics.observe h 30.0;
  (match Trace.Metrics.find m ~source:"self" ~name:"hits" with
  | Some (Trace.Metrics.Int 3) -> ()
  | _ -> Alcotest.fail "counter not in snapshot");
  (match Trace.Metrics.find m ~source:"self" ~name:"depth" with
  | Some (Trace.Metrics.Float g) -> check (Alcotest.float 0.0) "gauge" 4.5 g
  | _ -> Alcotest.fail "gauge not in snapshot");
  match Trace.Metrics.find m ~source:"self" ~name:"rtt" with
  | Some (Trace.Metrics.Dist d) ->
      check Alcotest.int "dist count" 2 d.count;
      check (Alcotest.float 0.001) "dist mean" 20.0 d.mean
  | _ -> Alcotest.fail "histogram not in snapshot"

let test_metrics_duplicate_register () =
  let m = Trace.Metrics.create () in
  Trace.Metrics.register m "ip" (fun () -> []);
  match Trace.Metrics.register m "ip" (fun () -> []) with
  | () -> Alcotest.fail "duplicate register accepted"
  | exception Invalid_argument _ -> ()

let test_metrics_cover_drop_counters () =
  (* The acceptance criterion: a stack's dropped_* counters are all
     reachable through one registry snapshot. *)
  Trace.disable ();
  let _eng, a, _b = two_hosts () in
  ignore
    (Ip.Stack.send a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 10 9 9 9)
       (Bytes.of_string "x"));
  let m = Trace.Metrics.create () in
  Trace.Metrics.register m "ip.a" (Ip.Stack.metrics_items a);
  (match Trace.Metrics.find m ~source:"ip.a" ~name:"dropped_no_route" with
  | Some (Trace.Metrics.Int 1) -> ()
  | _ -> Alcotest.fail "dropped_no_route not visible through the registry");
  let items = List.assoc "ip.a" (Trace.Metrics.snapshot m) in
  List.iter
    (fun name ->
      if not (List.mem_assoc name items) then
        Alcotest.failf "counter %s missing from snapshot" name)
    [ "dropped_malformed"; "dropped_no_route"; "dropped_ttl";
      "dropped_no_proto"; "dropped_not_forwarding"; "dropped_df";
      "dropped_unroutable_icmp" ]

(* --- accounting ------------------------------------------------------------ *)

let test_accounting_mutable_ledger () =
  let acct = Ip.Accounting.create () in
  let h =
    Ipv4.make_header ~proto:(Ipv4.Proto.Other 99) ~src:(Addr.v 10 0 1 1)
      ~dst:(Addr.v 10 0 2 2) ()
  in
  let payload = Bytes.make 100 'p' in
  Ip.Accounting.record acct h ~payload ~wire_bytes:120;
  Ip.Accounting.record acct h ~payload ~wire_bytes:120;
  check Alcotest.int "one flow" 1 (Ip.Accounting.flow_count acct);
  let flow, usage =
    match Ip.Accounting.flows acct with [ fu ] -> fu | _ -> assert false
  in
  check Alcotest.int "packets" 2 usage.Ip.Accounting.packets;
  check Alcotest.int "bytes" 240 usage.Ip.Accounting.bytes;
  (* Reads are copies: callers cannot corrupt the ledger through them. *)
  usage.Ip.Accounting.packets <- 999;
  (match Ip.Accounting.lookup acct flow with
  | Some u -> check Alcotest.int "ledger unaffected" 2 u.Ip.Accounting.packets
  | None -> Alcotest.fail "flow vanished");
  let total = Ip.Accounting.total acct in
  check Alcotest.int "total bytes" 240 total.Ip.Accounting.bytes;
  match Ip.Accounting.metrics_items acct () with
  | items -> (
      match List.assoc "packets" items with
      | Trace.Metrics.Int 2 -> ()
      | _ -> Alcotest.fail "metrics_items packets")

(* --- suite ----------------------------------------------------------------- *)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [ qcheck prop_ring_wrap;
          Alcotest.test_case "clear resets" `Quick test_clear_resets;
          Alcotest.test_case "mask filtering" `Quick test_mask_filtering;
          Alcotest.test_case "disabled inert" `Quick test_disabled_is_inert ] );
      ( "pcap",
        [ Alcotest.test_case "golden bytes" `Quick test_pcap_golden;
          Alcotest.test_case "link tap capture" `Quick test_pcap_on_link ] );
      ("drops", List.map parity_case drop_rows);
      ("guards", List.map parity_case guard_rows);
      ( "timers",
        [ Alcotest.test_case "arm and fire" `Quick test_timer_events ] );
      ( "metrics",
        [ Alcotest.test_case "owned values + find" `Quick
            test_metrics_owned_and_find;
          Alcotest.test_case "duplicate register" `Quick
            test_metrics_duplicate_register;
          Alcotest.test_case "covers drop counters" `Quick
            test_metrics_cover_drop_counters ] );
      ( "accounting",
        [ Alcotest.test_case "mutable ledger, copied reads" `Quick
            test_accounting_mutable_ledger ] );
    ]
