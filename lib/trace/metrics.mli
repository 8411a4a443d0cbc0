(** A registry unifying the counters scattered through the protocol
    modules into one named snapshot.

    Existing counter records stay where they are and keep their raw
    mutable-int bumps; a module joins the registry by {!register}ing a
    pull-based source (a closure listing its current values).  The hot
    paths therefore pay nothing for unification — cost is concentrated in
    {!snapshot}, which reads everything live.

    Registries are instances (see [Internet.metrics]), not a global, so
    their lifetime follows the topology that owns them. *)

type value =
  | Int of int
  | Float of float
  | Dist of { count : int; mean : float; min : float; max : float;
              total : float }

type t

val create : unit -> t

val register : t -> string -> (unit -> (string * value) list) -> unit
(** [register t source items] adds a named pull source.  Raises
    [Invalid_argument] on a duplicate source name. *)

val counter : t -> string -> int ref
(** An owned counter, created on first use; bump it with {!incr} or
    directly. *)

val incr : ?by:int -> int ref -> unit

val gauge : t -> string -> (unit -> float) -> unit
(** An owned gauge: sampled at snapshot time. *)

val histogram : t -> string -> Stdext.Stats.Summary.t
(** An owned distribution, created on first use; feed it with {!observe}. *)

val observe : Stdext.Stats.Summary.t -> float -> unit

val snapshot : t -> (string * (string * value) list) list
(** Every source's current values, sources sorted by name; owned
    counters/gauges/histograms appear under source ["self"]. *)

val to_json : t -> Json.t

val find : t -> source:string -> name:string -> value option
