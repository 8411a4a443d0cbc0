(* Space-saving top-k flow tracker (E20).

   A fixed population of [capacity] tracked flows, stored entirely in
   parallel int arrays: identity (fingerprint + the flattened flow
   fields needed to report it), counters, and two intrusive structures —
   a chained hash index (flat [head]/[next] arrays) for O(1) membership,
   and a binary min-heap over byte counts ([heap]/[pos] arrays) so the
   eviction victim is always at the root.  Nothing here allocates after
   [create]: every mutation is an int store plus O(log capacity) sifts.

   Admission follows space-saving — an untracked flow replaces the
   current minimum and inherits an overestimate recorded in
   [err_*] — but is *gated by the count-min estimate* the caller passes
   in: a flow only displaces the minimum when the sketch says it is
   already bigger.  Pure space-saving churns the whole table on a
   million-singleton tail (every new flow evicts, counts ratchet by
   total/capacity); the sketch gate keeps one-packet flows out, so the
   tracked set converges on the true heavy hitters and their counts stay
   exact from admission onward. *)

type t = {
  capacity : int;
  bucket_mask : int;
  bshift : int;  (* 63 - log2 buckets, for the multiply-shift bucket hash *)
  head : int array;  (* bucket -> entry index + 1; 0 = empty *)
  next : int array;  (* entry -> chain successor + 1; 0 = end *)
  fp : int array;  (* entry -> flow fingerprint *)
  pkts : int array;  (* entry -> packet count (admission estimate + exact) *)
  bytes : int array;  (* entry -> byte count; the heap's ranking key *)
  err_pkts : int array;  (* estimated (non-exact) part of pkts at admission *)
  err_bytes : int array;  (* estimated part of bytes at admission *)
  f_src : int array;  (* entry -> source address bits *)
  f_dst : int array;  (* entry -> destination address bits *)
  f_meta : int array;  (* entry -> packed proto/ports/portless *)
  heap : int array;  (* heap position -> entry; min-heap by [bytes] *)
  pos : int array;  (* entry -> heap position *)
  mutable n : int;  (* live entries; heap and entry arrays share it *)
}

let hash_mult = 0x2545F4914F6CDD1D

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let create ~capacity =
  if capacity < 1 then invalid_arg "Ip.Heavy_hitters.create: capacity < 1";
  let buckets =
    let rec up n = if is_pow2 n then n else up (n + (n land - n)) in
    up (max 8 (2 * capacity))
  in
  {
    capacity;
    bucket_mask = buckets - 1;
    bshift = 63 - log2 buckets;
    head = Array.make buckets 0;
    next = Array.make capacity 0;
    fp = Array.make capacity 0;
    pkts = Array.make capacity 0;
    bytes = Array.make capacity 0;
    err_pkts = Array.make capacity 0;
    err_bytes = Array.make capacity 0;
    f_src = Array.make capacity 0;
    f_dst = Array.make capacity 0;
    f_meta = Array.make capacity 0;
    heap = Array.make capacity 0;
    pos = Array.make capacity 0;
    n = 0;
  }

let capacity t = t.capacity
let size t = t.n

let bucket_of t fp = ((fp * hash_mult) lsr t.bshift) land t.bucket_mask
[@@fastpath]

(* Entry index tracking [fp], or -1. *)
let find t fp =
  let e = ref (Array.unsafe_get t.head (bucket_of t fp)) in
  let found = ref (-1) in
  while !e <> 0 do
    let i = !e - 1 in
    if Array.unsafe_get t.fp i = fp then begin
      found := i;
      e := 0
    end
    else e := Array.unsafe_get t.next i
  done;
  !found
[@@fastpath]

(* -- intrusive min-heap over [bytes] ------------------------------- *)

let swap t a b =
  let ea = Array.unsafe_get t.heap a and eb = Array.unsafe_get t.heap b in
  Array.unsafe_set t.heap a eb;
  Array.unsafe_set t.heap b ea;
  Array.unsafe_set t.pos ea b;
  Array.unsafe_set t.pos eb a
[@@fastpath]

let key_at t i = Array.unsafe_get t.bytes (Array.unsafe_get t.heap i)
[@@fastpath]

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.n then begin
    let r = l + 1 in
    let s = if r < t.n && key_at t r < key_at t l then r else l in
    if key_at t s < key_at t i then begin
      swap t i s;
      sift_down t s
    end
  end
[@@fastpath]

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if key_at t i < key_at t p then begin
      swap t i p;
      sift_up t p
    end
  end
[@@fastpath]

(* -- chained index maintenance ------------------------------------- *)

let link t i =
  let b = bucket_of t (Array.unsafe_get t.fp i) in
  Array.unsafe_set t.next i (Array.unsafe_get t.head b);
  Array.unsafe_set t.head b (i + 1)
[@@fastpath]

let unlink t i =
  let b = bucket_of t (Array.unsafe_get t.fp i) in
  if Array.unsafe_get t.head b = i + 1 then
    Array.unsafe_set t.head b (Array.unsafe_get t.next i)
  else begin
    let p = ref (Array.unsafe_get t.head b - 1) in
    while Array.unsafe_get t.next !p <> i + 1 do
      p := Array.unsafe_get t.next !p - 1
    done;
    Array.unsafe_set t.next !p (Array.unsafe_get t.next i)
  end
[@@fastpath]

(* -- recording ------------------------------------------------------ *)

(* One packet for the flow [fp] carrying [wire_bytes].  [est_pkts]/
   [est_bytes] are the sketch's post-update estimates for the same key
   (the admission gate and the inherited count of a newly admitted
   flow).  Allocation-free. *)
let record t ~fp ~src ~dst ~meta ~est_pkts ~est_bytes ~wire_bytes =
  let i = find t fp in
  if i >= 0 then begin
    Array.unsafe_set t.pkts i (Array.unsafe_get t.pkts i + 1);
    Array.unsafe_set t.bytes i (Array.unsafe_get t.bytes i + wire_bytes);
    sift_down t (Array.unsafe_get t.pos i)
  end
  else if t.n < t.capacity then begin
    let i = t.n in
    Array.unsafe_set t.fp i fp;
    Array.unsafe_set t.f_src i src;
    Array.unsafe_set t.f_dst i dst;
    Array.unsafe_set t.f_meta i meta;
    Array.unsafe_set t.pkts i est_pkts;
    Array.unsafe_set t.bytes i est_bytes;
    Array.unsafe_set t.err_pkts i (est_pkts - 1);
    Array.unsafe_set t.err_bytes i (est_bytes - wire_bytes);
    link t i;
    Array.unsafe_set t.heap i i;
    Array.unsafe_set t.pos i i;
    t.n <- t.n + 1;
    sift_up t i
  end
  else begin
    let root = Array.unsafe_get t.heap 0 in
    if est_bytes > Array.unsafe_get t.bytes root then begin
      (* Space-saving eviction: the smallest tracked flow makes way;
         the newcomer's count starts at its sketch estimate, with the
         estimated part remembered as its error bound. *)
      unlink t root;
      Array.unsafe_set t.fp root fp;
      Array.unsafe_set t.f_src root src;
      Array.unsafe_set t.f_dst root dst;
      Array.unsafe_set t.f_meta root meta;
      Array.unsafe_set t.pkts root est_pkts;
      Array.unsafe_set t.bytes root est_bytes;
      Array.unsafe_set t.err_pkts root (est_pkts - 1);
      Array.unsafe_set t.err_bytes root (est_bytes - wire_bytes);
      link t root;
      sift_down t (Array.unsafe_get t.pos root)
    end
  end
[@@fastpath]

(* -- queries (cold; reporting only) --------------------------------- *)

let fp_of t i = t.fp.(i)
let src_of t i = t.f_src.(i)
let dst_of t i = t.f_dst.(i)
let meta_of t i = t.f_meta.(i)
let pkts_of t i = t.pkts.(i)
let bytes_of t i = t.bytes.(i)

let iter t f =
  for i = 0 to t.n - 1 do
    f i
  done

let clear t =
  Array.fill t.head 0 (Array.length t.head) 0;
  t.n <- 0
