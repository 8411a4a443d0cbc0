(** Hierarchical catenet generator: the paper's §6 "regions" architecture
    at internet scale (E17).

    A seeded transit core — a ring of gateways plus random chords — with
    stub regions hanging off it.  Aggregation is the point: each region
    is one /20 prefix in every core table, so a core gateway's
    forwarding state is O(regions + core degree) whether the catenet
    holds 10^2 or 10^5 hosts.  Region gateways hold one host route per
    leaf plus a default up their transit link; leaf hosts are pooled
    ({!Hostpool}) rather than full stacks.

    Addressing: region [r] owns [10.(r lsl 12 bits)/20] (up to 4096
    regions of 4093 hosts); transit point-to-point links draw /30s from
    [172.16.0.0/12]. *)

type config = {
  seed : int;
  core : int;  (** Transit gateways, ring-connected; at least 1. *)
  chords : int;  (** Extra random core cross-links (best effort). *)
  regions : int;  (** 1..4096, each attached to core gw [r mod core]. *)
  hosts_per_region : int;  (** 1..4093 pooled leaves per region. *)
  core_profile : Netsim.profile;
  edge_profile : Netsim.profile;  (** Region-gateway uplinks. *)
  host_profile : Netsim.profile;  (** Leaf host access links. *)
}

val default_config : config
(** 8-gateway core with 4 chords, 16 regions of 64 hosts, gigabit links
    everywhere. *)

type t

val build : config -> t
(** Construct engine, network, gateways, routes and pooled hosts.  Raises
    [Invalid_argument] on out-of-range config or a disconnected core. *)

val engine : t -> Engine.t
val net : t -> Netsim.t
val pool : t -> Hostpool.t

val core_size : t -> int
val regions : t -> int
val hosts_per_region : t -> int
val core_gw : t -> int -> Ip.Stack.t
val region_gw : t -> int -> Ip.Stack.t

val host_slot : t -> region:int -> index:int -> int
(** The {!Hostpool} slot of host [index] in [region]. *)

val host_addr : t -> region:int -> index:int -> Packet.Addr.t

val region_prefix : int -> Packet.Addr.Prefix.t
(** The /20 a region announces into the core. *)

val region_gw_addr : int -> Packet.Addr.t
(** The region gateway's in-region address (.1 of the region's /20) —
    the one gateway address reachable from everywhere via the region's
    aggregate; transit-link /30 addresses are not globally routed.
    Region-local services (the E21 resolver) bind here. *)

val region_hops : t -> int -> int -> int
(** Gateway hops between two regions (0 within a region): uplink, the
    BFS core distance between their attach gateways, far uplink.  The
    anycast directory's distance function. *)

val add_full_host : t -> region:int -> Ip.Stack.t * Packet.Addr.t
(** Attach a full-stack host inside a region, addressed past the pooled
    range: /32 at the region gateway, default route up, reachable from
    everywhere via the region's aggregate.  For infrastructure
    endpoints (name servers, anycast directories) that need real UDP
    rather than pooled send/sink.  Raises [Invalid_argument] when the
    region's /20 is exhausted. *)

val route_entries_total : t -> int
(** Sum of all gateway table sizes — the catenet's total forwarding
    state. *)

val core_table_max : t -> int
(** Largest core-gateway table.  The aggregation invariant under test:
    stays [O(regions + degree)] as the host count scales. *)
