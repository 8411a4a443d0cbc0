(* E20 — Accountability at internet scale: sketch accounting on the fast
   path.

   Goal 7 was dropped in 1988 because per-flow gateway state looked
   unaffordable.  This experiment prices it today.  One region gateway
   of the E17 100x100 topology carries every datagram of a
   million-distinct-flow workload (100 heavy UDP flows interleaved with
   a singleton tail churned over source ports), three times over the
   identical deterministic load:

     off     accounting disabled          -> throughput baseline
     sketch  count-min + space-saving     -> throughput + estimates
     exact   the unbounded Hashtbl ledger -> ground truth + memory bar

   Reported (and gated by bench/gate.ml on the committed
   BENCH_accounting.json): sketch-mode datagrams/s >= 90% of
   accounting-off, byte-weighted error on the true top-100 flows <= 1%,
   and sketch resident memory <= 10% of the exact table's. *)

open Catenet

let heavy_flows = 100
let full_heavy_pkts = 1_200
let full_tail_flows = 1_050_000
let payload_size = 40 (* UDP payload; wire = 20 IP + 8 UDP + payload *)
let pace_us = 2

(* 32768x2 is the throughput sweet spot.  A datagram touches two cache
   lines of sketch (one per row; packet+byte counters share a line), and
   at 1 MB total the sketch stops evicting the forwarding path's own
   working set from L3 — a 4 MB sketch measurably slows the whole
   gateway.  Conservative update keeps two rows comfortably inside the
   1% top-100 error budget even at ~32 tail flows per slot: a tail
   datagram only bumps its minimum row, so heavy-hitter slots are almost
   never inflated by colliding tail traffic. *)
let sketch_mode =
  Ip.Accounting.Sketch { width = 32_768; depth = 2; top_k = 256 }

let cfg =
  { Topo.default_config with
    Topo.core = 8; chords = 4; regions = 100; hosts_per_region = 100 }

type outcome = {
  dps : float;
  acct : Ip.Accounting.t option;
  distinct : int;  (* distinct flows the workload generated *)
}

(* The whole workload aims at region 0, so its gateway forwards every
   datagram.  Senders sit one per other region; heavy flow k keeps a
   fixed port pair, tail flow j is a fresh (sender, src_port, dst_port)
   combination never repeated — flow churn via ports, as real traffic
   does it, not via host count. *)
let run_load ~mode ~heavy_pkts ~tail =
  let t = Topo.build cfg in
  let pool = Topo.pool t in
  let eng = Topo.engine t in
  let nregions = Topo.regions t in
  let nhosts = Topo.hosts_per_region t in
  let gw = Topo.region_gw t 0 in
  let acct =
    match mode with
    | None -> None
    | Some m -> Some (Ip.Stack.enable_accounting ~mode:m gw)
  in
  let nsenders = nregions - 1 in
  let senders =
    Array.init nsenders (fun k ->
        Topo.host_slot t ~region:(k + 1) ~index:(k mod nhosts))
  in
  let dsts =
    Array.init nsenders (fun k -> Topo.host_addr t ~region:0 ~index:(k mod nhosts))
  in
  let heavy_total = heavy_flows * heavy_pkts in
  let total = heavy_total + tail in
  let heavy_every = max 1 (total / max 1 heavy_total) in
  let payload = Bytes.make payload_size 'g' in
  let heavy_sent = ref 0 in
  let tail_sent = ref 0 in
  let rec send_next i =
    if i < total then begin
      let ok =
        if i mod heavy_every = 0 && !heavy_sent < heavy_total then begin
          let k = !heavy_sent mod heavy_flows in
          incr heavy_sent;
          Hostpool.send_udp pool
            senders.(k mod nsenders)
            ~dst:dsts.(k mod nsenders)
            ~src_port:(40_000 + k) ~dst_port:39_000 payload
        end
        else begin
          let j = !tail_sent in
          incr tail_sent;
          let p = j mod nsenders in
          let jj = j / nsenders in
          Hostpool.send_udp pool senders.(p) ~dst:dsts.(p)
            ~src_port:(1 + (jj mod 60_000))
            ~dst_port:(1 + (jj / 60_000))
            payload
        end
      in
      if not ok then failwith "E20: send refused at the interface";
      Engine.after eng pace_us (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  (* Three back-to-back runs share this process's heap; compact before
     each measured section so the later modes are not billed for the
     earlier modes' garbage. *)
  Gc.compact ();
  let wall0 = Unix.gettimeofday () in
  Engine.run eng;
  let wall = Unix.gettimeofday () -. wall0 in
  if Hostpool.rx_total pool <> total then
    failwith
      (Printf.sprintf "E20: delivered %d of %d datagrams"
         (Hostpool.rx_total pool) total);
  if Hostpool.rx_stray pool <> 0 then
    failwith
      (Printf.sprintf "E20: %d frames went astray" (Hostpool.rx_stray pool));
  { dps = float_of_int total /. wall; acct; distinct = !tail_sent + heavy_flows }

(* Byte-weighted relative error of the sketch's estimates over the
   exact ledger's true top-[n] flows: sum |est - true| / sum true.
   Count-min never underestimates, so each |est - true| = est - true. *)
let topk_error ~exact ~sketch ~n =
  let top = Ip.Accounting.flows ~limit:n exact in
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun ((f : Ip.Accounting.flow), (u : Ip.Accounting.usage)) ->
      let est =
        match Ip.Accounting.lookup sketch f with
        | Some e -> e.Ip.Accounting.bytes
        | None -> 0
      in
      num := !num +. abs_float (float_of_int (est - u.Ip.Accounting.bytes));
      den := !den +. float_of_int u.Ip.Accounting.bytes)
    top;
  if !den = 0.0 then 0.0 else !num /. !den

let words acc = Obj.reachable_words (Obj.repr acc)

let run () =
  Util.banner "E20" "sketch accounting at scale"
    "count-min + space-saving heavy hitters account a million flows on \
     the fast path at <=1% top-100 error and a fraction of exact memory";
  let heavy_pkts = Util.scaled full_heavy_pkts in
  let tail = Util.scaled full_tail_flows in
  let off = run_load ~mode:None ~heavy_pkts ~tail in
  let sk = run_load ~mode:(Some sketch_mode) ~heavy_pkts ~tail in
  let ex = run_load ~mode:(Some Ip.Accounting.Exact) ~heavy_pkts ~tail in
  let sketch_acc = Option.get sk.acct in
  let exact_acc = Option.get ex.acct in
  let err = topk_error ~exact:exact_acc ~sketch:sketch_acc ~n:100 in
  let w_sketch = words sketch_acc in
  let w_exact = words exact_acc in
  let dps_ratio = sk.dps /. off.dps in
  let mem_ratio = float_of_int w_sketch /. float_of_int w_exact in
  let exact_flows = Ip.Accounting.flow_count exact_acc in
  let est_flows = Ip.Accounting.flow_count sketch_acc in
  Util.table
    [ "accounting"; "datagrams/s"; "flows"; "resident words" ]
    [
      [ "off"; Printf.sprintf "%.0f" off.dps; "-"; "-" ];
      [ "sketch 32768x2/top256"; Printf.sprintf "%.0f" sk.dps;
        string_of_int est_flows; string_of_int w_sketch ];
      [ "exact ledger"; Printf.sprintf "%.0f" ex.dps;
        string_of_int exact_flows; string_of_int w_exact ];
    ];
  Util.note
    "sketch throughput %.0f%% of off, top-100 byte error %.3f%%, memory \
     %.1f%% of exact at %d distinct flows (cardinality estimate %d)"
    (100.0 *. dps_ratio) (100.0 *. err) (100.0 *. mem_ratio) off.distinct
    est_flows;
  let open Trace.Json in
  Util.write_json "BENCH_accounting.json"
    (Obj
       [ ("experiment", Str "E20");
         ("distinct_flows", Int off.distinct);
         ("heavy_flows", Int heavy_flows);
         ("datagrams", Int ((heavy_flows * heavy_pkts) + tail));
         ("off_dps", Float off.dps);
         ("sketch_dps", Float sk.dps);
         ("exact_dps", Float ex.dps);
         ("dps_vs_off_pct", Float (100.0 *. dps_ratio));
         ("top100_byte_error_pct", Float (100.0 *. err));
         ("sketch_words", Int w_sketch);
         ("exact_words", Int w_exact);
         ("mem_vs_exact_pct", Float (100.0 *. mem_ratio));
         ("cardinality_estimate", Int est_flows);
         ("exact_flow_count", Int exact_flows) ])
