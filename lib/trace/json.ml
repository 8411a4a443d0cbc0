type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.17g would round-trip but litters the file; benches report measured
   quantities where a few decimals carry all the signal. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.4f" f

let to_buffer b t =
  let rec go indent t =
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b pad;
            go (indent + 2) item)
          items;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make indent ' ');
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b pad;
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\": ";
            go (indent + 2) v)
          fields;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make indent ' ');
        Buffer.add_char b '}'
  in
  go 0 t

let to_string t =
  let b = Buffer.create 256 in
  to_buffer b t;
  Buffer.contents b

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  output_char oc '\n';
  close_out oc

(* A recursive-descent reader, enough for any well-formed JSON and so
   for every BENCH_*.json [write_file] produces.  Numbers without a
   fraction or exponent come back as [Int], the rest as [Float]. *)
exception Malformed

let of_string s =
  let len = String.length s and pos = ref 0 in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' -> incr pos; ws ()
    | _ -> ()
  in
  let expect c = ws (); if peek () = c then incr pos else raise Malformed in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.equal (String.sub s !pos n) word then begin
      pos := !pos + n;
      v
    end
    else raise Malformed
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then raise Malformed;
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match peek () with
          | ('"' | '\\' | '/') as e -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' when !pos + 5 <= len -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some u when Uchar.is_valid u ->
                  Buffer.add_utf_8_uchar b (Uchar.of_int u);
                  pos := !pos + 4
              | _ -> raise Malformed)
          | _ -> raise Malformed);
          incr pos;
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match (int_of_string_opt tok, float_of_string_opt tok) with
    | Some i, _ -> Int i
    | None, Some f -> Float f
    | None, None -> raise Malformed
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (items '}' (fun () -> let k = str () in expect ':'; (k, value ())))
    | '[' -> incr pos; List (items ']' value)
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then (incr pos; more acc)
        else if peek () = close then (incr pos; List.rev acc)
        else raise Malformed
      in
      more []
  in
  match value () with
  | v -> ws (); if !pos = len then Some v else None
  | exception Malformed -> None

let scalar_in_file ~keys path =
  let rec walk keys v =
    match (keys, v) with
    | [], (Null | Bool _ | Int _ | Float _ | Str _) -> Some v
    | k :: rest, Obj fields -> Option.bind (List.assoc_opt k fields) (walk rest)
    | [], (List _ | Obj _) | _ :: _, (Null | Bool _ | Int _ | Float _ | Str _ | List _) ->
        None
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Option.bind (of_string text) (walk keys)
