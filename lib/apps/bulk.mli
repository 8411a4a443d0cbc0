(** Bulk data transfer over TCP (the FTP-shaped workload).

    A sender pushes a fixed number of patterned bytes down one connection;
    the receiver verifies the pattern and records completion.  Used by the
    survivability, fate-sharing, congestion and cost experiments. *)

type server

type transfer = {
  mutable received : int;
  mutable intact : bool;  (** Pattern verified so far. *)
  mutable fin_at_us : int option;  (** When the peer's FIN arrived. *)
}

val serve : Tcp.t -> port:int -> seed:int -> server
(** Accept any number of inbound transfers on [port], verifying each
    against the pattern [seed]. *)

val transfers : server -> transfer list
(** Most recent first. *)

type sender

val start :
  Tcp.t ->
  ?config:Tcp.config ->
  dst:Packet.Addr.t ->
  dst_port:int ->
  seed:int ->
  total:int ->
  unit ->
  sender
(** Connect and stream [total] patterned bytes, then close. *)

val conn : sender -> Tcp.conn
val finished : sender -> bool
(** All bytes acknowledged end-to-end and connection closed gracefully. *)

val failed : sender -> Tcp.close_reason option
(** Set when the connection died before completing. *)

val completed_at_us : sender -> int option
(** Time of graceful close after full transfer. *)

val goodput_bps : sender -> float option
(** Application bytes per second over the transfer lifetime. *)
