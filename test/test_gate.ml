(* The artifact gate (bench/gate.exe) against the contracts it must hold.

   The gate runs over a scratch copy of the committed BENCH_*.json
   artifacts plus one real E16 smoke run standing in for both replays.
   Everything passes as committed.  For every row, a copy with the
   row's field pushed just past its bound, deleted, or set to null fails
   the gate on that row alone, and a value at the bound passes.  The
   probe values below restate each bound from outside the table, so a
   row that is deleted or weakened fails its case here. *)

module Json = Catenet.Trace.Json

let gate = "../bench/gate.exe"

(* file, member path, values the row accepts, values it refuses *)
let cases =
  let f x = Json.Float x and i x = Json.Int x in
  let altered = Json.Str "00000000000000000000000000000000" in
  [
    ("BENCH_trace.json", "e13_regression_pct", [ f 2.0 ], [ f 2.01 ]);
    ("BENCH_trace.json", "e14_regression_pct", [ f 2.0 ], [ f 2.01 ]);
    ("BENCH_topology.json", "dps_vs_e13_pct", [ f 80.0 ], [ f 79.99 ]);
    ("BENCH_topology.json", "words_vs_e13_pct", [ f 120.0 ], [ f 120.01 ]);
    ("BENCH_survivability.json", "survival_pct", [ f 100.0 ], [ f 99.99 ]);
    ("BENCH_survivability.json", "worst_reconvergence_s", [ f 12.0 ], [ f 12.01 ]);
    ("BENCH_survivability.json", "replay_ok", [ Json.Bool true ], [ Json.Bool false ]);
    ("BENCH_accounting.json", "dps_vs_off_pct", [ f 90.0 ], [ f 89.99 ]);
    ("BENCH_accounting.json", "top100_byte_error_pct", [ f 1.0 ], [ f 1.01 ]);
    ("BENCH_accounting.json", "mem_vs_exact_pct", [ f 10.0 ], [ f 10.01 ]);
    ("BENCH_accounting.json", "distinct_flows", [ i 1_000_000 ], [ i 999_999 ]);
    ("BENCH_names.json", "clients", [ i 100_000 ], [ i 99_999 ]);
    ("BENCH_names.json", "steady_hit_pct", [ f 95.0 ], [ f 94.99 ]);
    ("BENCH_names.json", "p99_resolve_ms", [ f 20.0 ], [ f 20.01 ]);
    ("BENCH_names.json", "failover_s", [ f 0.0; f 12.0 ], [ f (-0.01); f 12.01 ]);
    ("BENCH_names.json", "lost_outside_crash", [ i 0 ], [ i 1 ]);
    ("BENCH_tcp_adversary.json", "hostile_segments", [ i 10_000 ], [ i 9_999 ]);
    ("BENCH_tcp_adversary.json", "kills", [ i 0 ], [ i 1 ]);
    ("BENCH_tcp_adversary.json", "goodput_attacked_pct", [ f 90.0 ], [ f 89.99 ]);
    ("BENCH_tcp_adversary.json", "fast_slow_identical", [ i 1 ], [ i 0 ]);
    ("BENCH_tcp_adversary.json", "lfn.wscale_shift", [ i 2 ], [ i 1 ]);
    ("BENCH_tcp_adversary.json", "lfn.peak_window", [ i 65_536 ], [ i 65_535 ]);
    ("BENCH_tcp_adversary.json", "lfn.speedup", [ f 1.01 ], [ f 1.0 ]);
    ("_smoke/BENCH_survivability.json", "schedule_digest", [], [ altered ]);
    ("_smoke/BENCH_survivability.json", "run_digest", [], [ altered ]);
    ("_replay2/BENCH_survivability.json", "schedule_digest", [], [ altered ]);
    ("_replay2/BENCH_survivability.json", "run_digest", [], [ altered ]);
  ]

let read path = In_channel.with_open_bin path In_channel.input_all
let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let sh fmt = Printf.ksprintf Sys.command fmt
let files = List.sort_uniq compare (List.map (fun (f, _, _, _) -> f) cases)

(* The scratch root: committed artifacts and one E16 smoke run, copied
   into both replay directories. *)
let root =
  lazy
    (let dir = Filename.temp_dir "catenet-gate" "" in
     at_exit (fun () -> ignore (sh "rm -rf %s" (Filename.quote dir)));
     List.iter
       (fun file ->
         if Filename.dirname file = "." then
           write (Filename.concat dir file) (read (Filename.concat ".." file)))
       files;
     let smoke = Filename.concat dir "_smoke" in
     if sh "../bench/main.exe --smoke --only E16 --out=%s >/dev/null" (Filename.quote smoke) <> 0
     then Alcotest.fail "E16 smoke run failed";
     Sys.mkdir (Filename.concat dir "_replay2") 0o755;
     let art = "BENCH_survivability.json" in
     write (Filename.concat dir ("_replay2/" ^ art)) (read (Filename.concat smoke art));
     dir)

(* Run the gate over the scratch root: exit status and its FAIL lines. *)
let run_gate () =
  let dir = Lazy.force root in
  let out = Filename.concat dir "gate.out" in
  let status = sh "%s --root %s > %s 2>&1" gate (Filename.quote dir) (Filename.quote out) in
  let lines = String.split_on_char '\n' (read out) in
  (status, lines, List.filter (String.starts_with ~prefix:"FAIL") lines)

let row_id (file, path, _, _) = file ^ " " ^ path

let names_row id line =
  let n = String.length id in
  let rec at i = i + n <= String.length line && (String.sub line i n = id || at (i + 1)) in
  at 0

(* Run the gate with [file] rewritten by [edit], then restore it. *)
let with_edit file edit =
  let path = Filename.concat (Lazy.force root) file in
  let original = read path in
  Fun.protect ~finally:(fun () -> write path original) (fun () ->
      edit path original;
      run_gate ())

let set_field path keys value original =
  let rec go keys v =
    match (keys, v) with
    | [ k ], Json.Obj fields when List.mem_assoc k fields ->
        Json.Obj
          (List.filter_map
             (fun (k', v') -> if k' = k then Option.map (fun x -> (k, x)) value else Some (k', v'))
             fields)
    | k :: rest, Json.Obj fields when List.mem_assoc k fields ->
        Json.Obj (List.map (fun (k', v') -> (k', if k' = k then go rest v' else v')) fields)
    | _ -> Alcotest.failf "%s has no member %s" path (String.concat "." keys)
  in
  match Json.of_string original with
  | Some tree -> write path (Json.to_string (go keys tree))
  | None -> Alcotest.failf "%s does not parse" path

let test_committed_pass () =
  let status, lines, failed = run_gate () in
  Alcotest.(check (list string)) "no row fails" [] failed;
  Alcotest.(check int) "exit status" 0 status;
  List.iter
    (fun c ->
      let id = row_id c in
      if not (List.exists (names_row id) lines) then Alcotest.failf "no row for %s" id)
    cases;
  Alcotest.(check int) "one line per row" (List.length cases)
    (List.length (List.filter (String.starts_with ~prefix:"ok") lines))

let fails_on_row id what (status, _, failed) =
  Alcotest.(check bool) (what ^ ": gate exits nonzero") true (status <> 0);
  match failed with
  | [ line ] when names_row id line -> ()
  | _ -> Alcotest.failf "%s: expected one FAIL line naming %s, got [%s]" what id
           (String.concat "; " failed)

let test_row ((file, path, ok, bad) as c) () =
  let id = row_id c and keys = String.split_on_char '.' path in
  let probe v = with_edit file (fun p original -> set_field p keys v original) in
  List.iter
    (fun v ->
      let status, _, failed = probe (Some v) in
      Alcotest.(check (list string)) ("accepts " ^ Json.to_string v) [] failed;
      Alcotest.(check int) "exit status" 0 status)
    ok;
  List.iter (fun v -> fails_on_row id ("refuses " ^ Json.to_string v) (probe (Some v))) bad;
  fails_on_row id "refuses null" (probe (Some Json.Null));
  fails_on_row id "refuses a deleted field" (probe None)

let test_missing_file () =
  List.iter
    (fun file ->
      let status, _, failed = with_edit file (fun p _ -> Sys.remove p) in
      Alcotest.(check bool) (file ^ " missing: gate exits nonzero") true (status <> 0);
      let expected =
        List.filter_map (fun ((f, _, _, _) as c) -> if f = file then Some (row_id c) else None) cases
      in
      Alcotest.(check int) (file ^ " missing: its rows fail") (List.length expected)
        (List.length failed);
      List.iter2
        (fun id line -> if not (names_row id line) then Alcotest.failf "%s not in %s" id line)
        expected failed)
    files

let () =
  Alcotest.run "gate"
    [
      ( "gate",
        [ Alcotest.test_case "committed artifacts pass" `Quick test_committed_pass;
          Alcotest.test_case "missing artifact fails its rows" `Quick test_missing_file ] );
      ("gate row", List.map (fun c -> Alcotest.test_case (row_id c) `Quick (test_row c)) cases);
    ]
