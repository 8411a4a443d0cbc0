(** Pooled endpoint state for internet-scale populations (E17).

    A pooled host is a netsim node plus five array cells: node, iface,
    address, tx count, rx count.  All pooled hosts share one receive
    closure — the netsim-wide default frame handler — so attaching the
    10^5th endpoint costs a record slot, not a closure web, and an idle
    endpoint costs nothing per tick.  Gateways keep their full
    {!Ip.Stack}; the pool is only for leaf hosts that source and sink
    datagrams. *)

type t

val proto : int
(** IP protocol number carried by pool datagrams (225).  The receive path
    counts a frame as delivered only when the protocol matches and the
    destination equals the pooled host's address; anything else lands in
    {!rx_stray}. *)

val create : Netsim.t -> t
(** Installs the pool's shared receive closure as the net's default
    handler ({!Netsim.set_default_handler}) — nodes with their own
    handler (gateway stacks) are unaffected. *)

val attach :
  t -> node:Netsim.node_id -> iface:Netsim.iface -> addr:Packet.Addr.t -> int
(** Register a node as a pooled host reachable on [iface]; returns its
    slot.  The node must not have a per-node netsim handler, or the pool
    will never see its frames. *)

val send : t -> int -> dst:Packet.Addr.t -> bytes -> bool
(** Encode and transmit one pool datagram from a slot's host out its
    interface.  Returns what {!Netsim.send} returns ([false] = dropped at
    the interface). *)

val send_udp :
  t ->
  int ->
  dst:Packet.Addr.t ->
  src_port:int ->
  dst_port:int ->
  bytes ->
  bool
(** Like {!send} but a real UDP datagram (proto 17, RFC 768 header).
    Pool datagrams are portless — one flow per host pair — so workloads
    that need flow churn (E20) vary ports here instead.  The pool's
    receive closure counts inbound UDP for the host's address as
    delivered, same as pool datagrams. *)

val set_udp_sink :
  t ->
  (int ->
  src:Packet.Addr.t ->
  src_port:int ->
  dst_port:int ->
  bytes ->
  unit)
  option ->
  unit
(** Attach (or detach) the pool-wide UDP payload sink: fires as
    [(sink slot ~src ~src_port ~dst_port payload)] for every delivered,
    checksum-valid UDP datagram, after the rx counters.  One shared
    closure — like the receive handler — so a workload can give pooled
    hosts behavior (echo replicas, request/response clients) without
    per-host closures.  Pool datagrams (proto 225) stay count-only. *)

val size : t -> int
val node : t -> int -> Netsim.node_id
val addr : t -> int -> Packet.Addr.t
val rx_count : t -> int -> int

val tx_total : t -> int
val rx_total : t -> int

val rx_stray : t -> int
(** Frames that reached a pooled host but were not pool datagrams for its
    address — misrouted, malformed, or foreign-protocol traffic.  Always 0
    in a correctly wired topology. *)
