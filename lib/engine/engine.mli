(** Discrete-event simulation engine.

    A single virtual clock (integer microseconds) and an event queue; every
    protocol timer, link transmission and application action in the system
    is an event on one engine.  Events scheduled for the same instant fire
    in scheduling order, so runs are fully deterministic. *)

type t

val create : unit -> t
(** A fresh engine with the clock at 0. *)

val now : t -> int
(** Current virtual time in microseconds.

    Convention, enforced by the catenet-lint [seqcmp] time rule: values
    from [now] are {e absolute timestamps}; integer literals in protocol
    code are {e durations}.  Never compare a timestamp against a bare
    literal — subtract two timestamps to get a duration first
    ([now t - t0 > timeout_us]), or add a duration to a timestamp to get
    a deadline.  Mixing the two classes silently breaks when a scenario
    starts the clock at a nonzero epoch. *)

val us : int -> int
(** Identity on microseconds; for call-site readability. *)

val ms : int -> int
(** Milliseconds to microseconds. *)

val sec : float -> int
(** Seconds to microseconds (rounded). *)

val to_sec : int -> float
(** Microseconds to seconds. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at].  Scheduling in
    the past is an error ([Invalid_argument]).  Once the queue has grown
    to its working size, the engine allocates nothing per event: the
    closure is the caller's. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t d f] runs [f] [d] microseconds from now. *)

(** Cancellable timers, used for protocol timeouts that are usually
    cancelled before firing (retransmission, delayed ACK, reassembly).

    A timer shares the one event queue with every other event and fires
    in the same order: by time, then by scheduling order.  Arming one
    allocates only its handle; cancelling sets a flag, and the cancelled
    shell stays queued until its time comes, when it is discarded
    unrun. *)
module Timer : sig
  type handle

  val start : t -> after:int -> (unit -> unit) -> handle
  (** Arm a one-shot timer. *)

  val cancel : handle -> unit
  (** Disarm; harmless if already fired or cancelled. *)

  val active : handle -> bool
  (** [true] while armed and not yet fired. *)
end

val timer_starts : t -> int
(** Cumulative count of {!Timer.start} calls, for instrumentation. *)

val pending : t -> int
(** Number of events still queued, cancelled timer shells included: a
    shell is counted until the clock reaches its time and it is
    discarded. *)

val step : t -> bool
(** Execute the next live event, discarding any cancelled shells ahead of
    it.  [false] if no live event remained. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the queue.  [until] stops the clock from advancing past the given
    time (events at exactly [until] still run); [max_events] bounds work as
    a runaway guard. *)
