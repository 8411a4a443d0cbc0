(* A timer handle: [cancelled] is the disarm flag, [fired] records
   execution so [Timer.active] needs no closure-captured cell.  Plain
   [schedule]/[after] events all share the engine's one [plain] handle,
   which is never cancelled, so only [Timer.start] allocates one. *)
type handle = { mutable cancelled : bool; mutable fired : bool }

(* A pool cell: a queued event's closure and handle. *)
type cell = { mutable fn : unit -> unit; mutable timer : handle }

(* One event queue: a 4-ary min-heap ordered by (time, seq), stored as
   three parallel int arrays so a sift moves only ints.  [slots.(i)]
   names the pool cell holding entry [i]'s closure and handle; a cell is
   written once at push and read once at pop.  Free slots form a LIFO
   stack in [free.(0 .. nfree - 1)].  A popped cell keeps its closure
   until it is reused (bounded by the pool's high-water mark), and its
   handle is reset to [plain] only if it held a timer, so plain events
   write no handle at all. *)
type t = {
  mutable clock : int;
  mutable seq : int;
  mutable size : int;
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable cells : cell array;
  mutable free : int array;
  mutable nfree : int;
  plain : handle;
  mutable timer_starts : int;
}

let nop () = ()

let initial_capacity = 64

let create () =
  let cap = initial_capacity in
  let plain = { cancelled = false; fired = false } in
  let t =
    {
      clock = 0;
      seq = 0;
      size = 0;
      keys = Array.make cap 0;
      seqs = Array.make cap 0;
      slots = Array.make cap 0;
      cells = Array.init cap (fun _ -> { fn = nop; timer = plain });
      free = Array.init cap (fun i -> cap - 1 - i);
      nfree = cap;
      plain;
      timer_starts = 0;
    }
  in
  (* The most recently created engine stamps flight-recorder events; with
     one engine per simulation (the universal case) this is simply "the
     clock". *)
  Trace.set_now (fun () -> t.clock);
  t

let now t = t.clock [@@fastpath]

let us d = d
let ms d = d * 1_000
let sec s = int_of_float ((s *. 1e6) +. 0.5)
let to_sec us = float_of_int us /. 1e6

let timer_starts t = t.timer_starts

(* Double every array.  Only called when the heap is full, so every slot
   is in use and the new slots [cap .. 2cap - 1] are the free list. *)
let grow t =
  let cap = Array.length t.keys in
  let ncap = 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.cells <-
    Array.init ncap (fun i ->
        if i < cap then t.cells.(i) else { fn = nop; timer = t.plain });
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.nfree <- cap

(* Out of line: formatting the message allocates. *)
let before_now t at =
  invalid_arg
    (Printf.sprintf "Engine.schedule: at=%d is before now=%d" at t.clock)

(* Move the hole at [i] up to where (key, seq, slot) belongs.  [seq] is
   the newest sequence number, so an entry with an equal key already
   orders first and only keys need comparing. *)
let sift_up t i key seq slot =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pk = keys.(p) in
    if pk > key then begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot
[@@fastpath]

(* Move the hole at the root down to where (key, seq, slot) belongs. *)
let sift_down t key seq slot =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let n = t.size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= n then continue := false
    else begin
      (* The least of up to four children. *)
      let m = ref c in
      let mk = ref keys.(c) in
      let ms = ref seqs.(c) in
      let last = if c + 3 < n then c + 3 else n - 1 in
      for j = c + 1 to last do
        let k = keys.(j) in
        if k < !mk || (k = !mk && seqs.(j) < !ms) then begin
          m := j;
          mk := k;
          ms := seqs.(j)
        end
      done;
      if !mk < key || (!mk = key && !ms < seq) then begin
        keys.(!i) <- !mk;
        seqs.(!i) <- !ms;
        slots.(!i) <- slots.(!m);
        i := !m
      end
      else continue := false
    end
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot
[@@fastpath]

let push t ~at h fn =
  if at < t.clock then (before_now t at [@fastpath.exempt]);
  if t.size = Array.length t.keys then (grow t [@fastpath.exempt]);
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  let c = t.cells.(s) in
  c.fn <- fn;
  if h != t.plain then c.timer <- h;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i at t.seq s;
  t.seq <- t.seq + 1
[@@fastpath]

let schedule t ~at fn = push t ~at t.plain fn [@@fastpath]

let after t d fn = push t ~at:(t.clock + d) t.plain fn [@@fastpath]

(* Remove the root (the queue must be non-empty), advance the clock to
   its time and run it unless it is a cancelled timer shell.  [true] if
   an event ran. *)
let fire t =
  let at = t.keys.(0) in
  let s = t.slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t t.keys.(n) t.seqs.(n) t.slots.(n);
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  t.clock <- at;
  let c = t.cells.(s) in
  let h = c.timer in
  if h == t.plain then begin
    c.fn ();
    true
  end
  else begin
    c.timer <- t.plain;
    if h.cancelled then false
    else begin
      h.fired <- true;
      if Trace.want Trace.Cls.timer then
        Trace.emit (Trace.Event.Timer_fire { at });
      c.fn ();
      true
    end
  end
[@@fastpath]

module Timer = struct
  type nonrec handle = handle

  let start t ~after fn =
    if after < 0 then
      invalid_arg (Printf.sprintf "Engine.Timer.start: after=%d" after);
    t.timer_starts <- t.timer_starts + 1;
    if Trace.want Trace.Cls.timer then
      Trace.emit (Trace.Event.Timer_arm { at = t.clock + after });
    let h = { cancelled = false; fired = false } in
    push t ~at:(t.clock + after) h fn;
    h

  let cancel (h : handle) = h.cancelled <- true [@@fastpath]

  let active (h : handle) = (not h.fired) && not h.cancelled
end

let pending t = t.size

(* Purge-on-pop: cancelled events — overwhelmingly protocol timers that
   were disarmed before firing (retransmission, delayed ACK) — are
   discarded here without counting as executed events, so a queue full of
   dead timer shells costs pops, not steps.  The clock still advances over
   the shells, exactly as it always has: a run that drains the queue must
   end at the same instant it did before purging existed, or every
   `run ~until:(now + w)` window downstream shifts and reproducibility
   across versions is lost. *)
let rec step t = t.size > 0 && (fire t || step t) [@@fastpath]

let run ?until ?max_events t =
  let until = match until with Some u -> u | None -> max_int in
  let max_events = match max_events with Some m -> m | None -> max_int in
  let executed = ref 0 in
  let continue = ref true in
  (* [until] is checked before every pop, shells included, so a cancelled
     shell inside the window cannot drag a later event in. *)
  while !continue && !executed < max_events do
    if t.size = 0 then continue := false
    else if t.keys.(0) > until then begin
      t.clock <- until;
      continue := false
    end
    else if fire t then incr executed
  done
[@@fastpath]
