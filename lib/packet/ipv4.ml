module Proto = struct
  type t = Icmp | Tcp | Udp | Other of int

  let to_int = function Icmp -> 1 | Tcp -> 6 | Udp -> 17 | Other v -> v

  let of_int = function 1 -> Icmp | 6 -> Tcp | 17 -> Udp | v -> Other v

  let pp fmt = function
    | Icmp -> Format.pp_print_string fmt "icmp"
    | Tcp -> Format.pp_print_string fmt "tcp"
    | Udp -> Format.pp_print_string fmt "udp"
    | Other v -> Format.fprintf fmt "proto-%d" v
end

module Tos = struct
  type t = Routine | Low_delay | High_throughput | High_reliability

  (* Classic RFC 791 ToS octet: D bit 0x10, T bit 0x08, R bit 0x04. *)
  let to_int = function
    | Routine -> 0x00
    | Low_delay -> 0x10
    | High_throughput -> 0x08
    | High_reliability -> 0x04

  let of_int v =
    if v land 0x10 <> 0 then Low_delay
    else if v land 0x08 <> 0 then High_throughput
    else if v land 0x04 <> 0 then High_reliability
    else Routine

  let pp fmt = function
    | Routine -> Format.pp_print_string fmt "routine"
    | Low_delay -> Format.pp_print_string fmt "low-delay"
    | High_throughput -> Format.pp_print_string fmt "high-throughput"
    | High_reliability -> Format.pp_print_string fmt "high-reliability"
end

type header = {
  tos : Tos.t;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;
  ttl : int;
  proto : Proto.t;
  src : Addr.t;
  dst : Addr.t;
}

let header_size = 20
let max_datagram = 65535

(* Machine-checked wire contract: catenet-lint verifies every constant
   byte access in write_header/peek*/patch_* lands on these field
   boundaries, that the table is gapless, and that the writer and the
   peeks cover the same bytes. *)
let layout : (string * int * int) list =
  [ ("ver_ihl", 0, 1);
    ("tos", 1, 1);
    ("total_len", 2, 2);
    ("id", 4, 2);
    ("flags_frag", 6, 2);
    ("ttl", 8, 1);
    ("proto", 9, 1);
    ("checksum", 10, 2);
    ("src", 12, 4);
    ("dst", 16, 4) ]

let make_header ?(tos = Tos.Routine) ?(id = 0) ?(dont_fragment = false)
    ?(more_fragments = false) ?(frag_offset = 0) ?(ttl = 64) ~proto ~src ~dst
    () =
  { tos; id; dont_fragment; more_fragments; frag_offset; ttl; proto; src; dst }

type error =
  [ `Truncated | `Bad_version of int | `Bad_checksum | `Bad_header of string ]

let pp_error fmt = function
  | `Truncated -> Format.pp_print_string fmt "truncated datagram"
  | `Bad_version v -> Format.fprintf fmt "bad IP version %d" v
  | `Bad_checksum -> Format.pp_print_string fmt "bad header checksum"
  | `Bad_header m -> Format.fprintf fmt "bad header: %s" m

(* The one header writer; [who] names the entry point in its errors. *)
let write_header ~who h frame =
  let total = Bytes.length frame in
  if total < header_size || total > max_datagram then
    invalid_arg (who ^ ": bad frame size");
  if h.id < 0 || h.id > 0xffff then invalid_arg (who ^ ": bad id");
  if h.ttl < 0 || h.ttl > 255 then invalid_arg (who ^ ": bad ttl");
  if h.frag_offset < 0 || h.frag_offset > 0xffff * 8 || h.frag_offset mod 8 <> 0
  then invalid_arg (who ^ ": bad fragment offset");
  Bytes.set_uint8 frame 0 ((4 lsl 4) lor 5);
  Bytes.set_uint8 frame 1 (Tos.to_int h.tos);
  Bytes.set_uint16_be frame 2 total;
  Bytes.set_uint16_be frame 4 h.id;
  let flags =
    (if h.dont_fragment then 0x4000 else 0)
    lor (if h.more_fragments then 0x2000 else 0)
    lor (h.frag_offset / 8)
  in
  Bytes.set_uint16_be frame 6 flags;
  Bytes.set_uint8 frame 8 h.ttl;
  Bytes.set_uint8 frame 9 (Proto.to_int h.proto);
  Bytes.set_uint16_be frame 10 0 (* checksum placeholder *);
  Bytes.set_int32_be frame 12 (Addr.to_int32 h.src);
  Bytes.set_int32_be frame 16 (Addr.to_int32 h.dst);
  let csum = Checksum.of_bytes frame ~pos:0 ~len:header_size in
  Bytes.set_uint16_be frame 10 csum

let encode_into h frame = write_header ~who:"Ipv4.encode_into" h frame

(* One allocation: the frame, with the payload copied once into place. *)
let encode h ~payload =
  let plen = Bytes.length payload in
  if header_size + plen > max_datagram then
    invalid_arg "Ipv4.encode: datagram too large";
  let frame = Bytes.create (header_size + plen) in
  Bytes.blit payload 0 frame header_size plen;
  write_header ~who:"Ipv4.encode" h frame;
  frame

(* Which of [peek]'s checks a frame fails first.  Constant constructors,
   so computing one allocates nothing. *)
type defect = Sound | Short | Not_v4 | Has_options | Bad_sum

let peek_defect buf =
  let len = Bytes.length buf in
  if len < header_size then Short
  else begin
    let b0 = Bytes.get_uint8 buf 0 in
    if b0 lsr 4 <> 4 then Not_v4
    else if b0 land 0xf <> 5 then Has_options
    else if not (Checksum.valid buf ~pos:0 ~len:header_size) then Bad_sum
    else begin
      let total = Bytes.get_uint16_be buf 2 in
      if total < header_size || total > len then Short else Sound
    end
  end
[@@fastpath]

let valid buf =
  match peek_defect buf with
  | Sound -> true
  | Short | Not_v4 | Has_options | Bad_sum -> false
[@@fastpath]

let peek_proto buf = Bytes.get_uint8 buf 9 [@@fastpath]

let peek_dst buf = Int32.to_int (Bytes.get_int32_be buf 16) land 0xffffffff
[@@fastpath]

let peek buf =
  match peek_defect buf with
  | Short -> Error `Truncated
  | Not_v4 -> Error (`Bad_version (Bytes.get_uint8 buf 0 lsr 4))
  | Has_options -> Error (`Bad_header "options unsupported (IHL<>5)")
  | Bad_sum -> Error `Bad_checksum
  | Sound ->
      let flags = Bytes.get_uint16_be buf 6 in
      Ok
        {
          tos = Tos.of_int (Bytes.get_uint8 buf 1);
          id = Bytes.get_uint16_be buf 4;
          dont_fragment = flags land 0x4000 <> 0;
          more_fragments = flags land 0x2000 <> 0;
          frag_offset = (flags land 0x1fff) * 8;
          ttl = Bytes.get_uint8 buf 8;
          proto = Proto.of_int (peek_proto buf);
          src = Addr.of_int32 (Bytes.get_int32_be buf 12);
          dst = Addr.of_int32 (Bytes.get_int32_be buf 16);
        }

let payload_of buf =
  let total = Bytes.get_uint16_be buf 2 in
  Bytes.sub buf header_size (total - header_size)

let decode buf =
  match peek buf with
  | Error e -> Error e
  | Ok h -> Ok (h, payload_of buf)

let patch_ttl buf =
  let ttl = Bytes.get_uint8 buf 8 in
  if ttl = 0 then invalid_arg "Ipv4.patch_ttl: TTL already zero";
  (* TTL shares a 16-bit checksum word with the protocol byte. *)
  let old_word = Bytes.get_uint16_be buf 8 in
  let new_word = old_word - 0x100 in
  Bytes.set_uint16_be buf 8 new_word;
  let csum = Bytes.get_uint16_be buf 10 in
  Bytes.set_uint16_be buf 10 (Checksum.update_u16 csum ~old_word ~new_word)
[@@fastpath]

let pp_header fmt h =
  Format.fprintf fmt "%a -> %a %a ttl=%d id=%d%s%s off=%d tos=%a" Addr.pp
    h.src Addr.pp h.dst Proto.pp h.proto h.ttl h.id
    (if h.dont_fragment then " DF" else "")
    (if h.more_fragments then " MF" else "")
    h.frag_offset Tos.pp h.tos
