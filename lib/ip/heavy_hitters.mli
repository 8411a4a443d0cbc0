(** Space-saving top-k flow tracker (E20).

    Tracks the [capacity] largest flows by byte count in fixed memory:
    parallel int arrays, an intrusive chained hash index, and an
    intrusive min-heap keyed on bytes so the eviction victim is always
    at hand.  Admission is gated by the caller-supplied count-min
    estimate ({!Sketch}), which keeps the million-singleton tail from
    churning the table — see the implementation comment for why plain
    space-saving fails there.  {!record} is allocation-free
    ([@@fastpath], checked by catenet-lint).

    A tracked flow's counts start at the sketch's estimate when it is
    admitted, so they may overstate it by what the sketch overstated
    then; every packet after admission is counted exactly. *)

type t

val create : capacity:int -> t
val capacity : t -> int

val size : t -> int
(** Live entries, [<= capacity]. *)

val record :
  t ->
  fp:int ->
  src:int ->
  dst:int ->
  meta:int ->
  est_pkts:int ->
  est_bytes:int ->
  wire_bytes:int ->
  unit
(** One packet of [wire_bytes] for the flow fingerprinted [fp].
    [src]/[dst]/[meta] are opaque identity words stored for reporting;
    [est_pkts]/[est_bytes] are the sketch's post-update estimates for
    the same key (admission gate + inherited count).  Allocation-free. *)

val iter : t -> (int -> unit) -> unit
(** [iter t f] calls [f] with each live entry index (unordered). *)

(** Per-entry accessors, valid for indices passed to {!iter}'s
    callback. *)

val fp_of : t -> int -> int
val src_of : t -> int -> int
val dst_of : t -> int -> int
val meta_of : t -> int -> int
val pkts_of : t -> int -> int
val bytes_of : t -> int -> int

val clear : t -> unit
(** Drop every entry (epoch rotation). *)
