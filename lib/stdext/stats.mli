(** Measurement accumulators for experiment metrics.

    [Summary] keeps O(1) running moments (count/mean/variance/min/max);
    [Samples] additionally retains every observation so that exact
    percentiles (median, p95, p99 latency, jitter) can be reported, which
    the experiments need for service-quality tables. *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val min : t -> float
  (** +inf when empty. *)

  val max : t -> float
  (** -inf when empty. *)

  val total : t -> float
end

module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [\[0,100\]], by linear interpolation
      between closest ranks; 0 when empty. *)

  val median : t -> float
  val min : t -> float
  val max : t -> float

  val jitter : t -> float
  (** Mean absolute difference of consecutive observations (RFC 3550-style
      inter-arrival jitter over the recorded sequence); 0 with fewer than
      two samples. *)
end
