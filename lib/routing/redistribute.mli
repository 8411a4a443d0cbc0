(** Border-gateway route redistribution between a distance-vector and a
    link-state instance running on the same gateway.

    The paper's goal 4 is distributed management: regions operated by
    different organizations — potentially with entirely different interior
    routing — still form one internet.  A border gateway participates in
    both regions and periodically leaks each side's reachable prefixes
    into the other, with a metric translation.  Split-origin tracking
    prevents routes from echoing back into the protocol they came from. *)

type t

val create :
  ?period_us:int ->
  ?metric_cap:int ->
  Engine.t ->
  dv:Dv.t ->
  ls:Ls.t ->
  t
(** Start redistributing every [period_us] (default 1 s).  DV metrics
    leaking into LS are carried as stub costs; LS metrics leaking into DV
    are capped at [metric_cap] (default 8) to respect RIP's small
    infinity. *)

val exchanges : t -> int
(** Redistribution rounds performed. *)
