(* The artifact gate: one declared table of every contract bin/check.sh
   holds the benches to, and the checker that applies it.

   Each row names an artifact, a member path inside it, a comparison
   with its bound, and the contract the bound stands for.  The table is
   the only home of these bounds: the gate reads measured fields and
   never a floor, ceiling or budget from the artifact it judges.  A
   missing file, a missing field or a null value fails its row.

   The ratio and scale rows read the committed full-run artifacts at the
   repo root (smoke numbers are too noisy to gate on).  The replay rows
   read two separate E16 smoke runs, _smoke/ and _replay2/, against
   digests pinned at commit f072765, so a change that reorders events
   cannot pass by being merely self-consistent.  Update a pin only with
   a deliberate change to simulation semantics, and record the change
   and the new values in CHANGES.md.

   Usage: dune exec bench/gate.exe -- [--root DIR]
   Prints one line per row; exits 1 if any row fails. *)

module Json = Catenet.Trace.Json

type check =
  | At_most of float
  | At_least of float
  | Above of float
  | Within of float * float
  | Is of Json.t  (** a count, flag or digest that must match exactly *)

type row = { file : string; keys : string list; check : check; contract : string }

let row file path check contract =
  { file; keys = String.split_on_char '.' path; check; contract }

let trace = "BENCH_trace.json"
let topology = "BENCH_topology.json"
let survivability = "BENCH_survivability.json"
let accounting = "BENCH_accounting.json"
let names = "BENCH_names.json"
let adversary = "BENCH_tcp_adversary.json"
let replay1 = "_smoke/BENCH_survivability.json"
let replay2 = "_replay2/BENCH_survivability.json"

let schedule_pin = Json.Str "984d729c612dd3ded3035c6e10757e28"
let run_pin = Json.Str "4eefe2cefcb689316ca2eaaee3e8fbd9"

let table =
  [
    (* E15, DESIGN.md §observability *)
    row trace "e13_regression_pct" (At_most 2.0)
      "carrying disabled tracing does not slow the E13 fast path";
    row trace "e14_regression_pct" (At_most 2.0)
      "carrying disabled tracing does not slow the E14 fast path";
    (* E17, DESIGN.md §scale engine *)
    row topology "dps_vs_e13_pct" (At_least 80.0)
      "a 10^4-host topology keeps E13's forwarding throughput";
    row topology "words_vs_e13_pct" (At_most 120.0)
      "a 10^4-host topology keeps E13's words/packet";
    (* E16, DESIGN.md §survivability gauntlet *)
    row survivability "survival_pct" (At_least 100.0)
      "every TCP conversation survives the gauntlet";
    row survivability "worst_reconvergence_s" (At_most 12.0)
      "routing re-converges after every fault within budget";
    row survivability "replay_ok" (Is (Json.Bool true))
      "the gauntlet replays bit for bit in one process";
    (* E20, DESIGN.md §accounting-at-scale *)
    row accounting "dps_vs_off_pct" (At_least 90.0)
      "sketch accounting keeps accounting-off throughput";
    row accounting "top100_byte_error_pct" (At_most 1.0)
      "the sketch estimates the true top-100 flows' bytes";
    row accounting "mem_vs_exact_pct" (At_most 10.0)
      "the sketch stays a fraction of the exact ledger's memory";
    row accounting "distinct_flows" (At_least 1e6)
      "the run covers a million distinct flows";
    (* E21, DESIGN.md §name/service layer *)
    row names "clients" (At_least 1e5)
      "the run covers 10^5 client endpoints";
    row names "steady_hit_pct" (At_least 95.0)
      "resolver caches absorb the steady-state lookup storm";
    row names "p99_resolve_ms" (At_most 20.0)
      "p99 resolve latency stays inside its budget";
    row names "failover_s" (Within (0.0, 12.0))
      "anycast failover beats E16's reconvergence budget";
    row names "lost_outside_crash" (Is (Json.Int 0))
      "no session is lost outside the crash windows";
    (* E18, DESIGN.md §transport hardening *)
    row adversary "hostile_segments" (At_least 1e4)
      "the attack injects 10^4 forged segments";
    row adversary "kills" (Is (Json.Int 0))
      "forged segments kill no connection";
    row adversary "goodput_attacked_pct" (At_least 90.0)
      "goodput under attack holds against the unattacked run";
    row adversary "fast_slow_identical" (Is (Json.Int 1))
      "the fast path matches the slow path under attack";
    row adversary "lfn.wscale_shift" (At_least 2.0)
      "window scaling negotiates a real shift on the LFN";
    row adversary "lfn.peak_window" (Above 65535.0)
      "the LFN window grows past 64 KiB";
    row adversary "lfn.speedup" (Above 1.0)
      "window scaling speeds the LFN transfer up";
    (* E16 smoke, twice: replay determinism across processes *)
    row replay1 "schedule_digest" (Is schedule_pin)
      "replay 1 draws the pinned fault schedule";
    row replay1 "run_digest" (Is run_pin)
      "replay 1 runs the pinned packet-level history";
    row replay2 "schedule_digest" (Is schedule_pin)
      "replay 2 draws the pinned fault schedule";
    row replay2 "run_digest" (Is run_pin)
      "replay 2 runs the pinned packet-level history";
  ]

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Null | Json.Bool _ | Json.Str _ | Json.List _ | Json.Obj _ -> None

let holds check v =
  match (check, number v) with
  | At_most b, Some x -> x <= b
  | At_least b, Some x -> x >= b
  | Above b, Some x -> x > b
  | Within (lo, hi), Some x -> lo <= x && x <= hi
  | Is want, Some x -> number want = Some x
  | Is want, None -> want = v
  | (At_most _ | At_least _ | Above _ | Within _), None -> false

let describe = function
  | At_most b -> Printf.sprintf "<= %g" b
  | At_least b -> Printf.sprintf ">= %g" b
  | Above b -> Printf.sprintf "> %g" b
  | Within (lo, hi) -> Printf.sprintf "in [%g, %g]" lo hi
  | Is v -> "= " ^ Json.to_string v

(* Print the row's verdict; true when it passes. *)
let judge ~root r =
  let path = Filename.concat root r.file in
  let ok, got =
    if not (Sys.file_exists path) then (false, "no file")
    else
      match Json.scalar_in_file ~keys:r.keys path with
      | None -> (false, "no such field")
      | Some v -> (holds r.check v, Json.to_string v)
  in
  Printf.printf "%-4s %s %s = %s (%s): %s\n"
    (if ok then "ok" else "FAIL")
    r.file (String.concat "." r.keys) got (describe r.check) r.contract;
  ok

let () =
  let root = ref "." in
  Arg.parse
    [ ("--root", Arg.Set_string root, "DIR directory the artifact paths are relative to") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gate [--root DIR]";
  let failed = List.filter (fun r -> not (judge ~root:!root r)) table in
  Printf.printf "gate: %d rows, %d failed\n" (List.length table) (List.length failed);
  if failed <> [] then exit 1
