(* E17 — Internet-scale topology: aggregated routing at 10^4..10^5 hosts.

   The paper's §6 regions argument, measured: a transit core that knows
   one aggregated /20 per stub region (never a host route) forwards
   sustained cross-region traffic at the same per-packet budget as E13's
   8-node chain, while carrying 1000x the endpoints.  Leaf hosts are
   pooled (Hostpool) and the per-gateway tables sit on the LPM trie, so
   neither host count nor table size shows up in the per-datagram cost.

   We run E13's fast path in-process first and report this topology's
   figures as ratios against it — same machine, same build, so the
   committed BENCH_topology.json carries a machine-independent contract:
   datagrams/s within 20% of the small topology, words/packet within
   20%.  A second, jumbo build at 10^5 hosts checks that construction,
   aggregation and delivery still hold one order of magnitude up. *)

open Catenet
module Addr = Packet.Addr

let full_datagrams = 50_000
let payload_size = 1_400
let pace_us = 15 (* aggregate injection, spread round-robin over senders *)
let senders = 64

let main_cfg =
  { Topo.default_config with
    Topo.core = 8; chords = 4; regions = 100; hosts_per_region = 100 }

let jumbo_cfg =
  { Topo.default_config with
    Topo.core = 16; chords = 8; regions = 250; hosts_per_region = 400 }

type outcome = {
  dps : float;
  words_per_pkt : float;
  hosts : int;
  core_table_max : int;
  route_total : int;
}

(* Sustained cross-region load: [senders] flows, sender k in region
   k*stride talking to a host half the catenet away, one datagram
   injected every [pace_us] round-robin across the flows — the aggregate
   rate matches E13's single flow, the paths spread over the whole
   core. *)
let run_topo cfg ~datagrams =
  let t = Topo.build cfg in
  let pool = Topo.pool t in
  let nregions = Topo.regions t in
  let nhosts = Topo.hosts_per_region t in
  let flows =
    Array.init senders (fun k ->
        let src_r = k * nregions / senders in
        let dst_r = (src_r + (nregions / 2)) mod nregions in
        ( Topo.host_slot t ~region:src_r ~index:(k mod nhosts),
          Topo.host_addr t ~region:dst_r ~index:((k + 7) mod nhosts) ))
  in
  let eng = Topo.engine t in
  let payload = Bytes.make payload_size 'e' in
  let rec send_next i =
    if i < datagrams then begin
      let slot, dst = flows.(i mod senders) in
      if not (Hostpool.send pool slot ~dst payload) then
        failwith "E17: send refused at the interface";
      Engine.after eng pace_us (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  let alloc0 = Gc.allocated_bytes () in
  let wall0 = Unix.gettimeofday () in
  Engine.run eng;
  let wall = Unix.gettimeofday () -. wall0 in
  let alloc = Gc.allocated_bytes () -. alloc0 in
  if Hostpool.rx_total pool <> datagrams then
    failwith
      (Printf.sprintf "E17: delivered %d of %d datagrams"
         (Hostpool.rx_total pool) datagrams);
  if Hostpool.rx_stray pool <> 0 then
    failwith
      (Printf.sprintf "E17: %d frames went astray" (Hostpool.rx_stray pool));
  {
    dps = float_of_int datagrams /. wall;
    words_per_pkt = alloc /. 8.0 /. float_of_int datagrams;
    hosts = nregions * nhosts;
    core_table_max = Topo.core_table_max t;
    route_total = Topo.route_entries_total t;
  }

let write_json ~baseline ~main ~jumbo ~datagrams ~dps_ratio ~words_ratio =
  let open Trace.Json in
  let outcome (o : outcome) =
    Obj
      [ ("hosts", Int o.hosts);
        ("datagrams_per_sec", Float o.dps);
        ("words_per_packet", Float o.words_per_pkt);
        ("core_table_max", Int o.core_table_max);
        ("route_entries_total", Int o.route_total) ]
  in
  Util.write_json "BENCH_topology.json"
    (Obj
       [ ("experiment", Str "E17");
         ("datagrams", Int datagrams);
         ("payload_bytes", Int payload_size);
         ("e13_baseline",
          Obj
            [ ("datagrams_per_sec", Float baseline.E13.dps);
              ("words_per_packet", Float baseline.E13.words_per_pkt) ]);
         ("topology", outcome main);
         ("jumbo", outcome jumbo);
         ("dps_vs_e13_pct", Float (100.0 *. dps_ratio));
         ("words_vs_e13_pct", Float (100.0 *. words_ratio)) ])

let run () =
  Util.banner "E17" "internet-scale topology"
    "aggregated per-region prefixes keep 10^4..10^5-host forwarding \
     within 20% of E13's 8-node chain";
  let datagrams = Util.scaled full_datagrams in
  let baseline = E13.run_once ~fast:true ~datagrams in
  let main = run_topo main_cfg ~datagrams in
  let jumbo = run_topo jumbo_cfg ~datagrams:(Util.scaled 5_000) in
  let dps_ratio = main.dps /. baseline.E13.dps in
  let words_ratio = main.words_per_pkt /. baseline.E13.words_per_pkt in
  Util.table
    [ "topology"; "hosts"; "datagrams/s"; "words/packet"; "max core table" ]
    [
      [ "E13 chain (baseline)"; "2"; Printf.sprintf "%.0f" baseline.E13.dps;
        Printf.sprintf "%.1f" baseline.E13.words_per_pkt; "-" ];
      [ "regions 100x100"; string_of_int main.hosts;
        Printf.sprintf "%.0f" main.dps;
        Printf.sprintf "%.1f" main.words_per_pkt;
        string_of_int main.core_table_max ];
      [ "jumbo 250x400"; string_of_int jumbo.hosts;
        Printf.sprintf "%.0f" jumbo.dps;
        Printf.sprintf "%.1f" jumbo.words_per_pkt;
        string_of_int jumbo.core_table_max ];
    ];
  Util.note
    "throughput %.0f%% of E13, words/packet %.0f%%; %d routes total at %d \
     hosts (max core table %d)"
    (100.0 *. dps_ratio) (100.0 *. words_ratio) main.route_total main.hosts
    main.core_table_max;
  write_json ~baseline ~main ~jumbo ~datagrams ~dps_ratio ~words_ratio
