(* E15 — Observability overhead (the flight-recorder contract).

   The trace subsystem promises that instrumentation is effectively free
   until switched on: with every event class disabled, each instrumented
   call site costs one mask load and a branch.  This experiment measures
   that contract three ways on one workload (the E13 transit chain):

   - disabled: recorder off — what every other bench and experiment pays;
   - metrics: recorder off, an [Internet.metrics] registry wired over
     every stack, link and transport and snapshotted at the end — the
     registry is pull-based, so the hot path should not notice it;
   - recorder: every event class enabled, 64Ki-entry ring — the full
     cost of constructing and recording events on the forwarding path.

   It then re-runs the untraced E13 and E14 fast-path workloads verbatim
   (same modules, same code) and compares against the figures
   BENCH_forwarding.json / BENCH_tcp.json recorded earlier in the same
   harness run: if merely *carrying* the instrumentation slowed the fast
   paths by more than the contract allows, the regression shows up here
   — and bench/gate.ml fails the build on the committed artifact.

   Results go to stdout and BENCH_trace.json. *)

open Catenet

let full_datagrams = 20_000
let regression_budget_pct = 2.0

type mode = Disabled | Metrics_only | Recorder

let mode_name = function
  | Disabled -> "disabled"
  | Metrics_only -> "metrics"
  | Recorder -> "recorder"

type outcome = {
  dps : float;
  events : int; (* recorded, after ring overwrites *)
  emitted : int; (* recorded including overwritten *)
  snapshot_sources : int;
}

(* The E13 chain workload under one observability mode.  The topology and
   traffic are E13's (via its [run_once] building blocks would hide the
   metrics registry, so the chain is rebuilt here with the registry
   wired); throughput methodology matches E13: wall-clock the drain of a
   paced stream of max-size datagrams. *)
let run_mode mode ~datagrams =
  (match mode with
  | Recorder -> Trace.enable ~mask:Trace.Cls.all ()
  | Disabled | Metrics_only -> Trace.disable ());
  let t = Internet.create ~seed:42 () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  let gws = List.init 4 (fun i -> Internet.add_gateway t (Printf.sprintf "g%d" (i + 1))) in
  let chain =
    [ a.Internet.h_node ]
    @ List.map (fun g -> g.Internet.g_node) gws
    @ [ b.Internet.h_node ]
  in
  let prof =
    Netsim.profile ~bandwidth_bps:1_000_000_000 ~delay_us:1 ~mtu:1500
      ~queue_capacity:4096 "e15-gigabit"
  in
  let rec wire = function
    | x :: (y :: _ as rest) ->
        ignore (Internet.connect t prof x y);
        wire rest
    | _ -> ()
  in
  wire chain;
  Internet.start t;
  let registry =
    match mode with
    | Metrics_only | Recorder -> Some (Internet.metrics t)
    | Disabled -> None
  in
  let proto = Packet.Ipv4.Proto.Other 99 in
  let delivered = ref 0 in
  Ip.Stack.register_proto b.Internet.h_ip proto (fun _ _ -> incr delivered);
  let eng = Internet.engine t in
  let dst = Internet.addr_of t b.Internet.h_node in
  let payload = Bytes.make 1_400 'o' in
  let rec send_next i =
    if i < datagrams then begin
      (match Ip.Stack.send a.Internet.h_ip ~proto ~dst payload with
      | Ok () -> ()
      | Error _ -> failwith "E15: send failed");
      Engine.after eng 15 (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  let wall0 = Unix.gettimeofday () in
  Internet.run_until_idle t;
  let wall = Unix.gettimeofday () -. wall0 in
  if !delivered <> datagrams then
    failwith
      (Printf.sprintf "E15: delivered %d of %d" !delivered datagrams);
  let snapshot_sources =
    match registry with
    | Some m -> List.length (Trace.Metrics.snapshot m)
    | None -> 0
  in
  let events = Trace.length () and emitted = Trace.emitted () in
  Trace.disable ();
  Trace.clear ();
  { dps = float_of_int datagrams /. wall; events; emitted; snapshot_sources }

(* Re-run the committed fast-path workloads with tracing fully disabled
   and compare to what this harness run's E13/E14 measured before.  Both
   sides execute the identical instrumented binary, so this guards the
   *runtime* half of the contract (the disabled-cost half is the
   disabled-vs-baseline delta measured above; the cross-PR half is
   guarded by bench/gate.ml over the committed artifacts). *)
let regression_vs ~keys ~file ~measured =
  match Trace.Json.scalar_in_file ~keys (Util.out_path file) with
  | Some (Trace.Json.Float prior) when prior > 0.0 ->
      Some ((prior -. measured) /. prior *. 100.0)
  | Some _ | None -> None

let run () =
  Util.banner "E15" "observability overhead"
    (Printf.sprintf
       "tracing disabled costs <%.0f%% on the e13/e14 fast paths; the full \
        recorder stays within the same simulation budget"
       regression_budget_pct);
  Trace.disable ();
  Trace.clear ();
  let datagrams = Util.scaled full_datagrams in
  let best2 f = let a = f () in let b = f () in if b.dps > a.dps then b else a in
  let disabled = best2 (fun () -> run_mode Disabled ~datagrams) in
  let metrics = best2 (fun () -> run_mode Metrics_only ~datagrams) in
  let recorder = best2 (fun () -> run_mode Recorder ~datagrams) in
  let pct_of base x = (base -. x) /. base *. 100.0 in
  Util.table
    [ "mode"; "datagrams/s"; "overhead"; "events held"; "events emitted" ]
    (List.map
       (fun (m, o) ->
         [ mode_name m; Printf.sprintf "%.0f" o.dps;
           Printf.sprintf "%.1f%%" (pct_of disabled.dps o.dps);
           string_of_int o.events; string_of_int o.emitted ])
       [ (Disabled, disabled); (Metrics_only, metrics); (Recorder, recorder) ]);
  Util.note "metrics snapshot covered %d sources" metrics.snapshot_sources;

  (* Fast-path regression guard: same binary, tracing disabled. *)
  let e13_best =
    let best = ref None in
    for _ = 1 to 2 do
      let o = E13.run_once ~fast:true ~datagrams in
      match !best with
      | Some b when b >= o.E13.dps -> ()
      | _ -> best := Some o.E13.dps
    done;
    Option.get !best
  in
  let e14_best =
    let total = Util.scaled (16 * 1024 * 1024) in
    let best = ref None in
    for _ = 1 to 2 do
      let o = E14.run_transfer ~fast:true ~total in
      match !best with
      | Some b when b >= o.E14.sps -> ()
      | _ -> best := Some o.E14.sps
    done;
    Option.get !best
  in
  let e13_reg =
    regression_vs
      ~keys:[ "fast"; "datagrams_per_sec" ]
      ~file:"BENCH_forwarding.json" ~measured:e13_best
  in
  let e14_reg =
    regression_vs
      ~keys:[ "fast"; "segments_per_sec" ]
      ~file:"BENCH_tcp.json" ~measured:e14_best
  in
  let show = function
    | Some p -> Printf.sprintf "%.1f%%" p
    | None -> "n/a (no prior artifact)"
  in
  Util.note "e13 fast path, tracing disabled: %.0f dgram/s (regression %s)"
    e13_best (show e13_reg);
  Util.note "e14 fast path, tracing disabled: %.0f seg/s (regression %s)"
    e14_best (show e14_reg);

  let open Trace.Json in
  let mode_json o =
    Obj
      [ ("datagrams_per_sec", Float o.dps);
        ("overhead_pct", Float (pct_of disabled.dps o.dps));
        ("events_held", Int o.events);
        ("events_emitted", Int o.emitted) ]
  in
  let reg = function Some p -> Float p | None -> Null in
  Util.write_json "BENCH_trace.json"
    (Obj
       [ ("experiment", Str "E15");
         ("topology", Str "a - g1..g4 - b");
         ("datagrams", Int datagrams);
         ("disabled", mode_json disabled);
         ("metrics", mode_json metrics);
         ("recorder", mode_json recorder);
         ("metrics_sources", Int metrics.snapshot_sources);
         ("e13_fast_dps", Float e13_best);
         ("e13_regression_pct", reg e13_reg);
         ("e14_fast_sps", Float e14_best);
         ("e14_regression_pct", reg e14_reg) ])
