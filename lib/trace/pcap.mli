(** Classic pcap (libpcap file format 2.4) capture writer.

    Captures use LINKTYPE_RAW (101): each record is a raw IPv4 datagram,
    the exact frames this simulator's links carry, so output opens
    directly in tcpdump or wireshark.  Attach a capture to a link with
    [Internet.pcap_link]. *)

type t

val magic : int
(** [0xa1b2c3d4] — classic pcap, microsecond timestamps. *)

val linktype_raw : int
(** 101. *)

val default_snaplen : int
(** 65535. *)

val header_len : int
(** File header size in bytes (24). *)

val record_header_len : int
(** Per-packet header size in bytes (16). *)

val file_layout : (string * int * int) list
(** [(field, offset, width)] contract for the 24-byte file header,
    machine-checked by catenet-lint against {!create}. *)

val record_layout : (string * int * int) list
(** [(field, offset, width)] contract for the 16-byte record header,
    machine-checked by catenet-lint against {!add}. *)

val create : ?snaplen:int -> unit -> t
(** An in-memory capture with the global header already written. *)

val add : t -> ts_us:int -> bytes -> unit
(** Append one frame stamped with the virtual time [ts_us] (split into
    seconds/microseconds); bodies longer than the snaplen are truncated
    with the original length preserved in the record header. *)

val packet_count : t -> int
val byte_length : t -> int
val to_string : t -> string
val write_file : string -> t -> unit
