(** A minimal JSON tree and serializer, shared by the metrics snapshot
    exporter, [Accounting.to_json] and the bench harness's BENCH_*.json
    writers — one representation for every machine-readable artifact this
    repo emits, instead of per-file [Printf] formats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), UTF-8 passthrough, control characters
    escaped. *)

val to_buffer : Buffer.t -> t -> unit

val write_file : string -> t -> unit
(** [to_string] plus a trailing newline, written atomically enough for
    bench artifacts. *)

val of_string : string -> t option
(** Parse one JSON text; [None] when malformed.  Integral numbers come
    back as [Int], others as [Float]. *)

val scalar_in_file : keys:string list -> string -> t option
(** The scalar ([Null], [Bool], [Int], [Float] or [Str]) reached from a
    JSON file's top-level object through the members named by [keys];
    [None] when the file is unreadable or malformed, a member is absent,
    or the value is a list or an object. *)
