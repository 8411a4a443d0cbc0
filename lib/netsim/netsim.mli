(** Simulated network substrate: nodes, interfaces and point-to-point links.

    Each link is one "network technology" in the catenet sense: it has its
    own bandwidth, propagation delay, MTU, random loss rate and a bounded
    drop-tail output queue per direction.  The internet layer built on top
    must tolerate whatever combination of these it is handed — that is
    precisely goal 3 of the 1988 paper (variety of networks).

    Failure injection (links and nodes going down and coming back) is the
    substrate for the survivability experiments (goal 1). *)

type node_id = int
type iface = int
(** Interface index, local to a node, assigned densely from 0 as links are
    attached. *)

type link_id = int

(** A link technology profile. *)
type profile = {
  name : string;
  bandwidth_bps : int;  (** Raw bit rate. *)
  delay_us : int;  (** One-way propagation delay. *)
  mtu : int;  (** Largest frame accepted, in bytes. *)
  loss : float;  (** Independent per-frame corruption/loss probability. *)
  queue_capacity : int;  (** Output queue bound, frames per direction. *)
  jitter_us : int;
      (** Uniform random extra propagation delay in [0, jitter_us]; nonzero
          jitter can reorder deliveries, which upper layers must tolerate. *)
}

val profile :
  ?bandwidth_bps:int ->
  ?delay_us:int ->
  ?mtu:int ->
  ?loss:float ->
  ?queue_capacity:int ->
  ?jitter_us:int ->
  string ->
  profile
(** Profile with defaults: 10 Mb/s, 1 ms, MTU 1500, no loss, queue 32, no
    jitter. *)

(** Ready-made technologies spanning the range the paper lists (§5):
    LANs, long-haul lines, satellite, slow serial, lossy radio. *)
module Profiles : sig
  val ethernet : profile  (** 10 Mb/s LAN, 0.1 ms, MTU 1500. *)

  val arpanet_trunk : profile  (** 56 kb/s long-haul, 20 ms, MTU 1006. *)

  val satellite : profile  (** 1.5 Mb/s, 250 ms, MTU 1500. *)

  val serial_9600 : profile  (** 9.6 kb/s, 5 ms, MTU 576. *)

  val packet_radio : profile  (** 400 kb/s, 10 ms, MTU 254, 2% loss. *)

  val t1 : profile  (** 1.536 Mb/s, 10 ms, MTU 1500. *)

  val fast_lan : profile  (** 100 Mb/s, 0.05 ms, MTU 1500. *)
end

type t

(** Per-direction link counters, for overhead accounting and experiments. *)
type link_stats = {
  tx_frames : int;  (** Frames fully transmitted. *)
  tx_bytes : int;
  delivered_frames : int;
  drops_queue : int;  (** Tail drops: queue full (congestion). *)
  drops_loss : int;  (** Random-loss drops. *)
  drops_down : int;  (** Sends attempted while link or node down. *)
  drops_mtu : int;  (** Frames larger than the link MTU. *)
}

val create : ?seed:int -> Engine.t -> t
(** Fresh empty network drawing randomness from [seed] (default 42). *)

val engine : t -> Engine.t

val add_node : t -> string -> node_id
val node_count : t -> int
val node_name : t -> node_id -> string

val add_link : t -> profile -> node_id -> node_id -> link_id
(** Connect two nodes, creating one new interface on each.  Self-links are
    rejected. *)

val link_count : t -> int

val iface_count : t -> node_id -> int
val iface_mtu : t -> node_id -> iface -> int
val iface_link : t -> node_id -> iface -> link_id
val peer : t -> node_id -> iface -> node_id * iface
(** The node/interface at the other end of the attached link. *)

val endpoints : t -> link_id -> (node_id * iface) * (node_id * iface)

val set_handler : t -> node_id -> (iface:iface -> bytes -> unit) -> unit
(** Install the frame-reception callback for a node (its network stack). *)

val set_default_handler :
  t -> (node:node_id -> iface:iface -> bytes -> unit) option -> unit
(** Fallback receive path for nodes that have no {!set_handler} callback
    of their own: one shared closure serves an arbitrary population of
    cheap hosts, so attaching the millionth endpoint costs a node record,
    not another closure web.  A per-node handler always wins; [None]
    removes the fallback. *)

val send : t -> node_id -> ?priority:bool -> iface:iface -> bytes -> bool
(** Hand a frame to the interface for transmission.  Returns [false] when
    the frame was dropped immediately (down, queue full, over MTU);
    random in-flight loss still reports [true].  [priority] frames (IP's
    low-delay ToS) are transmitted before queued ordinary frames — the
    per-link half of the type-of-service story. *)

(** {1 Failure injection} *)

val set_link_up : t -> link_id -> bool -> unit
(** Taking a link down discards everything queued and in flight on it. *)

val link_is_up : t -> link_id -> bool

val set_node_up : t -> node_id -> bool -> unit
(** A down node neither sends nor receives; frames addressed to it are
    lost.  Bringing it back does not restore any state — state recovery is
    the stacks' problem (fate-sharing). *)

val node_is_up : t -> node_id -> bool

val link_between : t -> node_id -> node_id -> link_id option
(** First link directly connecting the two nodes, if any. *)

(** {1 Accounting} *)

val link_stats : t -> link_id -> link_stats
(** Summed over both directions. *)

val total_stats : t -> link_stats
(** Summed over every link. *)

(** {1 Observability} *)

val set_link_tap :
  t -> link_id -> (dir:int -> bytes -> unit) option -> unit
(** Attach (or detach, with [None]) a frame observer to a link.  The tap
    fires at transmission completion — the sender's wire, before the
    random-loss draw — once per frame, with [dir] 0 for a->b and 1 for
    b->a.  Used by [Internet.pcap_link] for packet capture. *)

val link_metrics_items :
  t -> link_id -> unit -> (string * Trace.Metrics.value) list
(** Pull-based metrics source over {!link_stats}, for
    [Trace.Metrics.register]. *)

val total_metrics_items : t -> unit -> (string * Trace.Metrics.value) list
(** Same over {!total_stats}. *)
