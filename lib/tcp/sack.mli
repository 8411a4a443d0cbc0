(** Sender-side SACK scoreboard (RFC 2018): which ranges above [snd_una]
    the peer has reported holding, so retransmission can skip them.

    All edges are 32-bit modular sequence numbers ({!Seq_num}) within one
    send window of [snd_una]; blocks are disjoint with exclusive right
    edges. *)

type t

val create : unit -> t

val reset : t -> unit
(** Forget everything (connection teardown or RTO: RFC 2018 §8 allows
    discarding the scoreboard on timeout). *)

val record : t -> una:int -> high:int -> (int * int) list -> unit
(** Merge the SACK blocks of one ACK.  Blocks not strictly inside
    [(una, high\]] are ignored — including forged ranges. *)

val clear_below : t -> int -> unit
(** The cumulative ACK advanced: drop covered ranges. *)

val sacked_to : t -> int -> int option
(** [sacked_to t seq] is [Some right] when [seq] lies inside a sacked
    block — retransmission may jump to [right]. *)

val next_left : t -> int -> int option
(** Left edge of the first sacked block strictly after [seq]: a
    retransmission starting at [seq] must stop there. *)

val blocks : t -> (int * int) list

val sacked_bytes : t -> int
(** Total bytes currently sacked. *)
