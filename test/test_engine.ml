(* Tests for the discrete-event engine: time ordering, determinism,
   cancellable timers, bounded runs. *)

let check = Alcotest.check


let test_time_starts_at_zero () =
  let e = Engine.create () in
  check Alcotest.int "t=0" 0 (Engine.now e)

let test_events_run_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~at:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:10 (fun () -> ());
  Engine.run e;
  try
    Engine.schedule e ~at:5 (fun () -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_after_relative () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  Engine.schedule e ~at:100 (fun () ->
      Engine.after e 50 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check Alcotest.int "at 150" 150 !fired_at

let test_run_until_stops_clock () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.after e 1000 (fun () -> fired := true);
  Engine.run ~until:500 e;
  check Alcotest.bool "not fired" false !fired;
  check Alcotest.int "clock clamped" 500 (Engine.now e);
  check Alcotest.int "still pending" 1 (Engine.pending e);
  Engine.run ~until:1000 e;
  check Alcotest.bool "fired at boundary" true !fired

let test_max_events_guard () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    Engine.after e 1 loop
  in
  Engine.after e 1 loop;
  Engine.run ~max_events:100 e;
  check Alcotest.int "bounded" 100 !count

let test_timer_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.Timer.start e ~after:10 (fun () -> fired := true) in
  check Alcotest.bool "active before" true (Engine.Timer.active h);
  Engine.run e;
  check Alcotest.bool "fired" true !fired;
  check Alcotest.bool "inactive after" false (Engine.Timer.active h)

let test_timer_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.Timer.start e ~after:10 (fun () -> fired := true) in
  Engine.Timer.cancel h;
  check Alcotest.bool "inactive" false (Engine.Timer.active h);
  Engine.run e;
  check Alcotest.bool "not fired" false !fired

let test_timer_cancel_idempotent () =
  let e = Engine.create () in
  let h = Engine.Timer.start e ~after:10 (fun () -> ()) in
  Engine.Timer.cancel h;
  Engine.Timer.cancel h;
  Engine.run e

let test_step () =
  let e = Engine.create () in
  let n = ref 0 in
  Engine.after e 1 (fun () -> incr n);
  Engine.after e 2 (fun () -> incr n);
  check Alcotest.bool "step 1" true (Engine.step e);
  check Alcotest.int "one ran" 1 !n;
  check Alcotest.bool "step 2" true (Engine.step e);
  check Alcotest.bool "step empty" false (Engine.step e)

let test_step_purges_cancelled () =
  (* A queue holding only cancelled shells yields no step at all. *)
  let e = Engine.create () in
  let fired = ref false in
  let t1 = Engine.Timer.start e ~after:1 (fun () -> fired := true) in
  let t2 = Engine.Timer.start e ~after:2 (fun () -> fired := true) in
  Engine.Timer.cancel t1;
  Engine.Timer.cancel t2;
  check Alcotest.int "two shells queued" 2 (Engine.pending e);
  check Alcotest.bool "no live event" false (Engine.step e);
  check Alcotest.bool "nothing fired" false !fired;
  check Alcotest.int "queue drained" 0 (Engine.pending e)

let test_step_runs_live_past_cancelled () =
  let e = Engine.create () in
  let ran = ref 0 in
  let t = Engine.Timer.start e ~after:1 (fun () -> ran := 10) in
  Engine.after e 5 (fun () -> ran := !ran + 1);
  Engine.Timer.cancel t;
  check Alcotest.bool "one step" true (Engine.step e);
  check Alcotest.int "live ran, cancelled skipped" 1 !ran;
  check Alcotest.int "clock at live event" 5 (Engine.now e)

let test_run_until_purge_respects_boundary () =
  (* A cancelled shell inside the window must not drag an event beyond
     [until] into the run. *)
  let e = Engine.create () in
  let late = ref false in
  let t = Engine.Timer.start e ~after:10 (fun () -> ()) in
  Engine.after e 100 (fun () -> late := true);
  Engine.Timer.cancel t;
  Engine.run ~until:50 e;
  check Alcotest.bool "beyond-window event not run" false !late;
  check Alcotest.int "clock parked at until" 50 (Engine.now e);
  Engine.run e;
  check Alcotest.bool "runs once resumed" true !late

let test_nested_scheduling_determinism () =
  (* Two identical engines given the same program must agree exactly. *)
  let trace e =
    let log = Buffer.create 64 in
    let rec tick i =
      Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e));
      if i < 20 then begin
        Engine.after e ((i mod 3) + 1) (fun () -> tick (i + 1));
        Engine.after e 2 (fun () -> Buffer.add_string log "x;")
      end
    in
    Engine.after e 5 (fun () -> tick 0);
    Engine.run e;
    Buffer.contents log
  in
  check Alcotest.string "identical traces"
    (trace (Engine.create ()))
    (trace (Engine.create ()))

(* --- Differential oracle ---------------------------------------------------

   A list-based reference engine: the queue is a list kept sorted by time,
   a new event going after every queued event of the same time.  It is
   the specification the heap must meet, written as plainly as possible. *)
module Model = struct
  type handle = { mutable cancelled : bool; mutable fired : bool }
  type event = { at : int; timer : handle option; fn : unit -> unit }
  type t = { mutable clock : int; mutable queue : event list }

  let create () = { clock = 0; queue = [] }
  let now t = t.clock
  let pending t = List.length t.queue

  let enqueue t ev =
    let rec ins = function
      | x :: rest when x.at <= ev.at -> x :: ins rest
      | rest -> ev :: rest
    in
    t.queue <- ins t.queue

  let schedule t ~at fn =
    if at < t.clock then invalid_arg "Model.schedule";
    enqueue t { at; timer = None; fn }

  let start t ~after fn =
    let h = { cancelled = false; fired = false } in
    enqueue t { at = t.clock + after; timer = Some h; fn };
    h

  let cancel h = h.cancelled <- true
  let active h = (not h.fired) && not h.cancelled

  (* Pop the head, advance the clock to it and run it unless it is a
     cancelled timer; [true] if it ran. *)
  let fire t =
    match t.queue with
    | [] -> false
    | ev :: rest -> (
        t.queue <- rest;
        t.clock <- ev.at;
        match ev.timer with
        | None ->
            ev.fn ();
            true
        | Some h when h.cancelled -> false
        | Some h ->
            h.fired <- true;
            ev.fn ();
            true)

  let rec step t = t.queue <> [] && (fire t || step t)

  let run ?until ?max_events t =
    let rec loop executed =
      match (t.queue, until, max_events) with
      | _, _, Some m when executed >= m -> ()
      | [], _, _ -> ()
      | ev :: _, Some u, _ when ev.at > u -> t.clock <- u
      | _ -> loop (if fire t then executed + 1 else executed)
    in
    loop 0
end

(* A program is a list of top-level calls; events carry the operations
   they perform when they fire. *)
type op =
  | Plain of int * op list  (** [schedule] at now + delay *)
  | Timer of int * op list  (** [Timer.start ~after:delay] *)
  | Cancel of int  (** cancel the [k mod n]th timer armed so far *)

type call =
  | Op of op
  | Step
  | Run_until of int  (** [run ~until:(now + window)] *)
  | Run_max of int
  | Run_until_max of int * int
  | Run

module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> int
  val pending : t -> int
  val schedule : t -> at:int -> (unit -> unit) -> unit
  val start : t -> after:int -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val active : handle -> bool
  val step : t -> bool
  val run : ?until:int -> ?max_events:int -> t -> unit
end

(* Runs a program and returns, after every call, the events fired by it
   (id and time), the step result, [now], [pending] and every timer's
   [active] flag. *)
module Interp (E : ENGINE) = struct
  let exec calls =
    let e = E.create () in
    let fired = ref [] in
    let timers = ref [||] in
    let next_id = ref 0 in
    let rec perform = function
      | Plain (delay, ops) -> E.schedule e ~at:(E.now e + delay) (body ops)
      | Timer (delay, ops) ->
          let h = E.start e ~after:delay (body ops) in
          timers := Array.append !timers [| h |]
      | Cancel k ->
          let n = Array.length !timers in
          if n > 0 then E.cancel !timers.(k mod n)
    and body ops =
      let id = !next_id in
      incr next_id;
      fun () ->
        fired := (id, E.now e) :: !fired;
        List.iter perform ops
    in
    List.map
      (fun call ->
        fired := [];
        let stepped =
          match call with
          | Op op ->
              perform op;
              None
          | Step -> Some (E.step e)
          | Run_until w ->
              E.run ~until:(E.now e + w) e;
              None
          | Run_max m ->
              E.run ~max_events:m e;
              None
          | Run_until_max (w, m) ->
              E.run ~until:(E.now e + w) ~max_events:m e;
              None
          | Run ->
              E.run e;
              None
        in
        ( List.rev !fired,
          stepped,
          E.now e,
          E.pending e,
          Array.to_list (Array.map E.active !timers) ))
      calls
end

module Real = Interp (struct
  include Engine

  type handle = Engine.Timer.handle

  let start = Engine.Timer.start
  let cancel = Engine.Timer.cancel
  let active = Engine.Timer.active
end)

module Ref = Interp (Model)

let gen_program =
  let open QCheck.Gen in
  (* Same-instant and near events, and delays on both sides of 2.1 s,
     the horizon of the timing wheel this queue replaced. *)
  let delay =
    frequency
      [
        (3, return 0);
        (3, int_range 1 5);
        (2, int_range 0 3_000_000);
        (1, int_range 2_000_000 2_200_000);
      ]
  in
  let rec op depth =
    let ops = if depth = 0 then return [] else list_size (0 -- 3) (op (depth - 1)) in
    frequency
      [
        (3, map2 (fun d os -> Plain (d, os)) delay ops);
        (3, map2 (fun d os -> Timer (d, os)) delay ops);
        (2, map (fun k -> Cancel k) nat);
      ]
  in
  let call =
    frequency
      [
        (6, map (fun o -> Op o) (op 2));
        (2, return Step);
        (2, map (fun w -> Run_until w) (oneof [ 0 -- 10; 0 -- 3_000_000 ]));
        (1, map (fun m -> Run_max m) (0 -- 4));
        (1, map2 (fun w m -> Run_until_max (w, m)) (0 -- 2_500_000) (0 -- 4));
        (1, return Run);
      ]
  in
  list_size (0 -- 40) call

let rec show_op = function
  | Plain (d, os) -> Printf.sprintf "P%d[%s]" d (show_ops os)
  | Timer (d, os) -> Printf.sprintf "T%d[%s]" d (show_ops os)
  | Cancel k -> Printf.sprintf "C%d" k

and show_ops os = String.concat ";" (List.map show_op os)

let show_call = function
  | Op o -> show_op o
  | Step -> "step"
  | Run_until w -> Printf.sprintf "until+%d" w
  | Run_max m -> Printf.sprintf "max%d" m
  | Run_until_max (w, m) -> Printf.sprintf "until+%d,max%d" w m
  | Run -> "run"

let prop_engine_matches_model =
  (* After every call the heap engine and the list model must agree on
     what fired and when, on [step]'s result, [now], [pending] (cancelled
     shells included) and every timer's [active] flag. *)
  QCheck.Test.make ~name:"engine matches the list reference model" ~count:300
    (QCheck.make
       ~print:(fun cs -> String.concat " | " (List.map show_call cs))
       gen_program)
    (fun calls -> Real.exec calls = Ref.exec calls)

(* --- Allocation ---------------------------------------------------------- *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_schedule_step_allocates_nothing () =
  let e = Engine.create () in
  let f () = () in
  let rounds n () =
    for _ = 1 to n do
      Engine.schedule e ~at:(Engine.now e) f;
      ignore (Engine.step e)
    done
  in
  rounds 100 ();
  let base = minor_words_of (rounds 0) in
  check (Alcotest.float 0.) "words for 10^4 schedule+step" 0.
    (minor_words_of (rounds 10_000) -. base)

let test_timer_cycle_allocates_handle_only () =
  let e = Engine.create () in
  let f () = () in
  let rounds n () =
    for _ = 1 to n do
      Engine.Timer.cancel (Engine.Timer.start e ~after:10 f);
      (* Purges the cancelled shell. *)
      ignore (Engine.step e)
    done
  in
  rounds 100 ();
  let base = minor_words_of (rounds 0) in
  (* A handle is two fields and a header. *)
  check (Alcotest.float 0.) "words for 10^4 start+cancel+purge" 30_000.
    (minor_words_of (rounds 10_000) -. base)

let test_unit_conversions () =
  check Alcotest.int "ms" 2_000 (Engine.ms 2);
  check Alcotest.int "sec" 1_500_000 (Engine.sec 1.5);
  check (Alcotest.float 1e-9) "to_sec" 0.25 (Engine.to_sec 250_000)

let () =
  Alcotest.run "engine"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_events_run_in_time_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "after relative" `Quick test_after_relative;
          Alcotest.test_case "run until" `Quick test_run_until_stops_clock;
          Alcotest.test_case "max events" `Quick test_max_events_guard;
          Alcotest.test_case "units" `Quick test_unit_conversions;
        ] );
      ( "timers",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_timer_cancel_idempotent;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "purge cancelled" `Quick test_step_purges_cancelled;
          Alcotest.test_case "purge then live" `Quick
            test_step_runs_live_past_cancelled;
          Alcotest.test_case "purge respects until" `Quick
            test_run_until_purge_respects_boundary;
          Alcotest.test_case "determinism" `Quick test_nested_scheduling_determinism;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "schedule+step" `Quick
            test_schedule_step_allocates_nothing;
          Alcotest.test_case "timer cycle" `Quick
            test_timer_cycle_allocates_handle_only;
        ] );
    ]
