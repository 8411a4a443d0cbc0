(* The scale engine: hierarchical region generator + pooled host state.
   What matters is the forwarding-state *shape* (core tables hold one
   aggregated prefix per region, never per-host routes), that the
   generated catenet actually delivers traffic in every direction, and
   that a pooled host takes delivery of exactly its own datagrams without
   allocating. *)

open Catenet

let check = Alcotest.check

let small () =
  Topo.build
    { Topo.default_config with Topo.core = 4; chords = 2; regions = 6;
      hosts_per_region = 10 }

let test_aggregation () =
  let t = small () in
  let hosts = Topo.regions t * Topo.hosts_per_region t in
  check Alcotest.int "pool holds every host" hosts
    (Hostpool.size (Topo.pool t));
  (* A core gateway knows connected /30s plus one /20 per region — never
     a host route.  With 60 hosts its table must stay far below the host
     count, and entries below /20 must not exist in the core at all. *)
  check Alcotest.bool "core tables aggregated" true
    (Topo.core_table_max t < Topo.regions t + 2 * Topo.core_size t + 4);
  for c = 0 to Topo.core_size t - 1 do
    List.iter
      (fun (r : Ip.Route_table.route) ->
        check Alcotest.bool "no host routes in the core" true
          (Packet.Addr.Prefix.length r.Ip.Route_table.prefix <= 30))
      (Ip.Route_table.entries (Ip.Stack.table (Topo.core_gw t c)))
  done;
  (* Region gateways carry the per-host routes instead. *)
  check Alcotest.bool "region gw holds host routes" true
    (Ip.Route_table.length (Ip.Stack.table (Topo.region_gw t 0))
    >= Topo.hosts_per_region t)

let test_cross_region_delivery () =
  let t = small () in
  let pool = Topo.pool t in
  (* Far corners: regions attached to different core gateways. *)
  let s = Topo.host_slot t ~region:0 ~index:0 in
  let d = Topo.host_slot t ~region:5 ~index:9 in
  check Alcotest.bool "send accepted" true
    (Hostpool.send pool s ~dst:(Topo.host_addr t ~region:5 ~index:9)
       (Bytes.make 64 'x'));
  Engine.run (Topo.engine t);
  check Alcotest.int "delivered across the core" 1 (Hostpool.rx_count pool d);
  check Alcotest.int "nothing went astray" 0 (Hostpool.rx_stray pool)

let test_intra_region_delivery () =
  let t = small () in
  let pool = Topo.pool t in
  let d = Topo.host_slot t ~region:2 ~index:3 in
  check Alcotest.bool "send accepted" true
    (Hostpool.send pool
       (Topo.host_slot t ~region:2 ~index:7)
       ~dst:(Topo.host_addr t ~region:2 ~index:3)
       (Bytes.make 32 'y'));
  Engine.run (Topo.engine t);
  check Alcotest.int "hairpinned at the region gw" 1
    (Hostpool.rx_count pool d)

let test_all_pairs_regions () =
  (* Every region can reach every other region (and itself). *)
  let t = small () in
  let pool = Topo.pool t in
  let n = Topo.regions t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      ignore
        (Hostpool.send pool
           (Topo.host_slot t ~region:src ~index:src)
           ~dst:(Topo.host_addr t ~region:dst ~index:dst)
           (Bytes.make 16 'z'))
    done
  done;
  Engine.run (Topo.engine t);
  check Alcotest.int "every pair delivered" (n * n) (Hostpool.rx_total pool);
  check Alcotest.int "no strays" 0 (Hostpool.rx_stray pool)

let test_region_prefix_owns_hosts () =
  let t = small () in
  for r = 0 to Topo.regions t - 1 do
    let p = Topo.region_prefix r in
    for i = 0 to Topo.hosts_per_region t - 1 do
      check Alcotest.bool "host inside its region prefix" true
        (Packet.Addr.Prefix.mem (Topo.host_addr t ~region:r ~index:i) p)
    done
  done

(* --- Hostpool delivery ---------------------------------------------------- *)

module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4

let pool_addr = Addr.v 10 0 0 2

(* Node [a] sends raw frames over one link to [b], a pooled host. *)
let pool_pair () =
  let eng = Engine.create () in
  let net = Netsim.create eng in
  let a = Netsim.add_node net "a" and b = Netsim.add_node net "b" in
  ignore (Netsim.add_link net (Netsim.profile "p") a b);
  let pool = Hostpool.create net in
  ignore (Hostpool.attach pool ~node:b ~iface:0 ~addr:pool_addr);
  (eng, net, a, b, pool)

let frame ?(proto = Hostpool.proto) ?(dst = pool_addr) () =
  Ipv4.encode
    (Ipv4.make_header ~proto:(Ipv4.Proto.of_int proto) ~src:(Addr.v 10 0 0 1)
       ~dst ())
    ~payload:(Bytes.make 32 'd')

(* Rewrite header bytes of a good frame, repairing its checksum. *)
let resealed f =
  let b = frame () in
  f b;
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10
    (Packet.Checksum.of_bytes b ~pos:0 ~len:Ipv4.header_size);
  b

let test_pool_counts_strays () =
  let eng, net, a, _, pool = pool_pair () in
  let deliver f =
    ignore (Netsim.send net a ~iface:0 f);
    Engine.run eng
  in
  let strays =
    [ ("version 6", resealed (fun b -> Bytes.set_uint8 b 0 0x65));
      ("IHL 6", resealed (fun b -> Bytes.set_uint8 b 0 0x46));
      ( "bad checksum",
        let b = frame () in
        Bytes.set_uint8 b 8 (Bytes.get_uint8 b 8 lxor 1);
        b );
      ("total_len 19", resealed (fun b -> Bytes.set_uint16_be b 2 19));
      ( "total_len past the frame",
        resealed (fun b -> Bytes.set_uint16_be b 2 (Bytes.length b + 1)) );
      ("12-byte frame", Bytes.sub (frame ()) 0 12);
      ("wrong destination", frame ~dst:(Addr.v 10 0 0 3) ());
      ("TCP", frame ~proto:6 ());
      ("ICMP", frame ~proto:1 ()) ]
  in
  List.iteri
    (fun i (what, f) ->
      deliver f;
      check Alcotest.int (what ^ ": stray") (i + 1) (Hostpool.rx_stray pool);
      check Alcotest.int (what ^ ": not delivered") 0 (Hostpool.rx_total pool))
    strays;
  let n = List.length strays in
  deliver (frame ());
  deliver (frame ~proto:17 ());
  check Alcotest.int "pool datagram and UDP delivered" 2
    (Hostpool.rx_total pool);
  check Alcotest.int "no new strays" n (Hostpool.rx_stray pool)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The same 1000 frames through the same link, once into the pool and once
   into a per-node no-op handler: the difference is what pool delivery
   allocates. *)
let test_pool_delivery_allocates_nothing () =
  let words ~pooled =
    let eng, net, a, b, pool = pool_pair () in
    if not pooled then Netsim.set_handler net b (fun ~iface:_ _ -> ());
    let f = frame () in
    let rounds n () =
      for _ = 1 to n do
        ignore (Netsim.send net a ~iface:0 f);
        Engine.run eng
      done
    in
    rounds 10 ();
    let w = minor_words_of (rounds 1000) -. minor_words_of (rounds 0) in
    check Alcotest.int "every frame reached its receiver"
      (if pooled then 1010 else 0)
      (Hostpool.rx_total pool);
    w
  in
  let pooled = words ~pooled:true in
  check (Alcotest.float 0.) "pool delivery words over a no-op handler" 0.
    (pooled -. words ~pooled:false)

let () =
  Alcotest.run "topo"
    [
      ( "shape",
        [
          Alcotest.test_case "aggregation" `Quick test_aggregation;
          Alcotest.test_case "addressing" `Quick test_region_prefix_owns_hosts;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "cross-region" `Quick test_cross_region_delivery;
          Alcotest.test_case "intra-region" `Quick test_intra_region_delivery;
          Alcotest.test_case "all region pairs" `Quick test_all_pairs_regions;
        ] );
      ( "pool",
        [
          Alcotest.test_case "strays counted, not delivered" `Quick
            test_pool_counts_strays;
          Alcotest.test_case "delivery allocates nothing" `Quick
            test_pool_delivery_allocates_nothing;
        ] );
    ]
