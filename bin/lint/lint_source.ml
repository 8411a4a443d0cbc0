(* Source-level (Parsetree) rules of catenet-lint.

   Rules implemented here:

     wire      - wire modules declare a [layout] table [(field, offset,
                 width)]; every constant byte access in encode/peek/
                 encode_into/patch_* must land on whole fields, tables
                 must be gapless and overlap-free, and encode/decode
                 must touch the same bytes (checksum fields excepted -
                 they are verified by checksum folding, not read back).
     fastpath  - [@@fastpath]-tagged functions may not syntactically
                 allocate nor call untagged module-level functions.
                 [@fastpath.exempt] on an expression waives the rule for
                 that subtree; the then-branch of [if Trace.want ...]
                 guards is waived automatically (tracing allocates only
                 when the operator enabled it).
     obs       - every [drop_reason] constructor maps (via
                 [drop_reason_counter]) to a metrics key that is
                 registered somewhere, and is constructed at >= 1 site
                 outside its defining module.
     mli       - every library module has an interface file.

   The collection pass also records [@@fastpath] spans for the
   cmt-based rules in {!Lint_typed}. *)

open Parsetree
open Lint_common

(* ---------------------------------------------------------------- *)
(* Per-file info                                                     *)

type file_info = {
  fi_path : string;
  fi_structure : structure;
  fi_aliases : (string, string) Hashtbl.t;
      (* module X = A.B.C  =>  "X" -> "C" *)
  fi_toplevel : (string, unit) Hashtbl.t;
  fi_tagged : (string, Location.t) Hashtbl.t;
}

type ctx = {
  files : file_info list;
  tagged_names : (string, unit) Hashtbl.t;
  (* basename -> (start_line, end_line) list of [@@fastpath] bindings *)
  fastpath_spans : (string, (int * int) list) Hashtbl.t;
}

let pattern_names pat =
  let rec go acc p =
    match p.ppat_desc with
    | Ppat_var n -> n.txt :: acc
    | Ppat_constraint (p, _) | Ppat_alias (p, _) -> go acc p
    | Ppat_tuple ps -> List.fold_left go acc ps
    | _ -> acc
  in
  go [] pat

let collect_file path structure =
  let fi =
    {
      fi_path = path;
      fi_structure = structure;
      fi_aliases = Hashtbl.create 8;
      fi_toplevel = Hashtbl.create 32;
      fi_tagged = Hashtbl.create 8;
    }
  in
  let rec do_structure items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let names = pattern_names vb.pvb_pat in
                List.iter
                  (fun n ->
                    Hashtbl.replace fi.fi_toplevel n ();
                    if has_attr "fastpath" vb.pvb_attributes then
                      Hashtbl.replace fi.fi_tagged n vb.pvb_loc)
                  names)
              vbs
        | Pstr_module mb -> do_module_binding mb
        | Pstr_recmodule mbs -> List.iter do_module_binding mbs
        | _ -> ())
      items
  and do_module_binding mb =
    let rec do_mexpr me =
      match me.pmod_desc with
      | Pmod_ident lid -> (
          match mb.pmb_name.txt with
          | Some name ->
              Hashtbl.replace fi.fi_aliases name (last_exn (flatten_lid lid.txt))
          | None -> ())
      | Pmod_structure items -> do_structure items
      | Pmod_constraint (me, _) -> do_mexpr me
      | _ -> ()
    in
    do_mexpr mb.pmb_expr
  in
  do_structure structure;
  fi

let make_ctx files =
  let ctx =
    { files; tagged_names = Hashtbl.create 64; fastpath_spans = Hashtbl.create 16 }
  in
  List.iter
    (fun fi ->
      Hashtbl.iter
        (fun name (loc : Location.t) ->
          Hashtbl.replace ctx.tagged_names name ();
          let base = Filename.basename fi.fi_path in
          let span = (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum) in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt ctx.fastpath_spans base)
          in
          Hashtbl.replace ctx.fastpath_spans base (span :: prev))
        fi.fi_tagged)
    files;
  ctx

(* ---------------------------------------------------------------- *)
(* Rule: mli hygiene                                                 *)

let check_mli fi =
  if not (Sys.file_exists (fi.fi_path ^ "i")) then
    report ~file:fi.fi_path ~line:1 ~rule:"mli"
      (Printf.sprintf "missing interface file (%si)"
         (Filename.basename fi.fi_path))

(* ---------------------------------------------------------------- *)
(* Rule: wire layout                                                 *)

type layout = { l_name : string; l_fields : (string * int * int) list }

let layout_extent l =
  List.fold_left (fun m (_, o, w) -> max m (o + w)) 0 l.l_fields

let extract_layouts fi =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.find_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var n
                when n.txt = "layout"
                     || Filename.check_suffix n.txt "_layout" -> (
                  let rec unconstraint e =
                    match e.pexp_desc with
                    | Pexp_constraint (e, _) -> unconstraint e
                    | _ -> e
                  in
                  let rec list_elems e =
                    match (unconstraint e).pexp_desc with
                    | Pexp_construct ({ txt = Longident.Lident "::"; _ },
                                      Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
                      ->
                        hd :: list_elems tl
                    | _ -> []
                  in
                  let fields =
                    List.filter_map
                      (fun e ->
                        match (unconstraint e).pexp_desc with
                        | Pexp_tuple [ name; off; width ] -> (
                            match
                              (string_constant name, int_constant off,
                               int_constant width)
                            with
                            | Some n, Some o, Some w -> Some (n, o, w)
                            | _ -> None)
                        | _ -> None)
                      (list_elems (unconstraint vb.pvb_expr))
                  in
                  match fields with
                  | [] -> None
                  | fields ->
                      Some ({ l_name = n.txt; l_fields = fields }, vb.pvb_loc))
              | _ -> None)
            vbs
      | _ -> None)
    fi.fi_structure

let check_layout_table fi (l, loc) =
  let sorted =
    List.sort (fun (_, a, _) (_, b, _) -> compare a b) l.l_fields
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n, _, w) ->
      if Hashtbl.mem seen n then
        report_loc ~rule:"wire" loc
          (Printf.sprintf "layout %s: duplicate field name %s" l.l_name n);
      Hashtbl.replace seen n ();
      if w <= 0 then
        report_loc ~rule:"wire" loc
          (Printf.sprintf "layout %s: field %s has non-positive width" l.l_name
             n))
    sorted;
  ignore
    (List.fold_left
       (fun pos (n, o, w) ->
         if o < pos then
           report_loc ~rule:"wire" loc
             (Printf.sprintf "layout %s: field %s (offset %d) overlaps previous field"
                l.l_name n o)
         else if o > pos then
           report_loc ~rule:"wire" loc
             (Printf.sprintf
                "layout %s: gap of %d byte(s) before field %s (offset %d)"
                l.l_name (o - pos) n o);
         max pos (o + w))
       0 sorted);
  ignore fi

(* -- byte-access extraction -------------------------------------- *)

type cursor = Known of int | Unknown

type access = { ac_off : int; ac_width : int; ac_fn : string; ac_loc : Location.t }

let width_of_opname name =
  match name with
  | "u8" | "set_uint8" | "get_uint8" -> Some 1
  | "u16" | "set_uint16_be" | "get_uint16_be" | "set_uint16_le"
  | "get_uint16_le" ->
      Some 2
  | "u32" | "u32_of_int" | "set_int32_be" | "get_int32_be" | "set_int32_le"
  | "get_int32_le" ->
      Some 4
  | _ -> None

let is_cursor_style name =
  match name with "u8" | "u16" | "u32" | "u32_of_int" -> true | _ -> false

(* Constant-offset expression: [12], [pos], [pos + 12], [12 + pos].  A
   leading parameter named [pos] counts as base offset zero, which keeps
   the encode_into/peek accessors checkable. *)
let rec const_offset e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> int_of_string_opt s
  | Pexp_ident { txt = Longident.Lident "pos"; _ } -> Some 0
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident "+"; _ }; _ },
       [ (_, a); (_, b) ]) -> (
      match (const_offset a, const_offset b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Pexp_constraint (e, _) -> const_offset e
  | _ -> None

let nolabel_args args =
  List.filter_map
    (fun (lbl, e) -> match lbl with Asttypes.Nolabel -> Some e | _ -> None)
    args

(* Walk a function body simulating the Bytio.W write cursor and
   collecting constant byte accesses.  Nested [let f = fun ...] bodies
   are separate runs starting at offset 0 (each creates its own writer,
   as in Icmp_wire.encode). *)
let collect_accesses ~fn_name body =
  let accs = ref [] in
  let add off width loc =
    accs := { ac_off = off; ac_width = width; ac_fn = fn_name; ac_loc = loc } :: !accs
  in
  let rec run cur e : cursor =
    match e.pexp_desc with
    | Pexp_sequence (a, b) ->
        let cur = run cur a in
        run cur b
    | Pexp_let (_, vbs, body) ->
        let cur =
          List.fold_left
            (fun cur vb ->
              match vb.pvb_expr.pexp_desc with
              | Pexp_fun _ | Pexp_function _ ->
                  ignore (run (Known 0) (strip_funs vb.pvb_expr));
                  cur
              | _ -> run cur vb.pvb_expr)
            cur vbs
        in
        run cur body
    | Pexp_fun (_, _, _, body) -> run cur body
    | Pexp_function cases ->
        join cur (List.map (fun c -> fun cur -> run cur c.pc_rhs) cases)
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> apply cur lid args e
    | Pexp_apply (f, args) ->
        let cur = run cur f in
        List.fold_left (fun cur (_, a) -> run cur a) cur args
    | Pexp_ifthenelse (c, t, eo) ->
        let cur = run cur c in
        join cur
          (( fun cur -> run cur t )
           :: (match eo with None -> [] | Some e -> [ (fun cur -> run cur e) ]))
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        let cur = run cur scrut in
        join cur (List.map (fun c -> fun cur -> run cur c.pc_rhs) cases)
    | Pexp_constraint (e, _) -> run cur e
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> run cur a
    | Pexp_tuple es -> List.fold_left run cur es
    | Pexp_record (fs, base) ->
        let cur =
          match base with None -> cur | Some b -> run cur b
        in
        List.fold_left (fun cur (_, e) -> run cur e) cur fs
    | Pexp_field (e, _) -> run cur e
    | Pexp_setfield (a, _, b) ->
        let cur = run cur a in
        run cur b
    | Pexp_while (c, b) | Pexp_for (_, c, b, _, _) ->
        ignore (run Unknown c);
        ignore (run Unknown b);
        Unknown
    | Pexp_letmodule (_, _, body) | Pexp_open (_, body) -> run cur body
    | _ -> cur
  and strip_funs e =
    match e.pexp_desc with Pexp_fun (_, _, _, b) -> strip_funs b | _ -> e
  and join cur branches =
    match branches with
    | [] -> cur
    | _ ->
        let ends = List.map (fun f -> f cur) branches in
        let all_equal =
          match ends with
          | [] -> true
          | h :: t -> List.for_all (fun c -> c = h) t
        in
        if all_equal then List.hd ends else Unknown
  and apply cur lid args e =
    let name = last_exn (flatten_lid lid.txt) in
    let cur = List.fold_left (fun cur (_, a) -> run cur a) cur args in
    if is_cursor_style name then begin
      (match width_of_opname name with
      | Some w -> (
          match cur with
          | Known c ->
              add c w e.pexp_loc;
              Known (c + w)
          | Unknown -> Unknown)
      | None -> cur)
    end
    else if name = "bytes" || name = "sub" then Unknown
    else if name = "seek" then begin
      match nolabel_args args with
      | [ _; off ] | [ off ] -> (
          match const_offset off with Some o -> Known o | None -> Unknown)
      | _ -> Unknown
    end
    else begin
      (match width_of_opname name with
      | Some w -> (
          (* Bytes.get_* / Bytes.set_* with an explicit offset *)
          match nolabel_args args with
          | _ :: off :: _ -> (
              match const_offset off with
              | Some o -> add o w e.pexp_loc
              | None -> ())
          | _ -> ())
      | None ->
          (* peek_u32-style helper: last positional argument is the offset *)
          if String.length name >= 4 && String.sub name 0 4 = "peek" then begin
            let w =
              if Filename.check_suffix name "u32" then Some 4
              else if Filename.check_suffix name "u16" then Some 2
              else if Filename.check_suffix name "u8" then Some 1
              else None
            in
            match (w, List.rev (nolabel_args args)) with
            | Some w, off :: _ -> (
                match const_offset off with
                | Some o -> add o w e.pexp_loc
                | None -> ())
            | _ -> ()
          end);
      cur
    end
  in
  ignore (run (Known 0) (let rec s e = match e.pexp_desc with
                          | Pexp_fun (_, _, _, b) -> s b
                          | _ -> e in s body));
  List.rev !accs

let write_fn_names = [ "encode"; "encode_into"; "create"; "add" ]

let is_read_fn name =
  (String.length name >= 4 && String.sub name 0 4 = "peek")
  || name = "decode" || name = "of_peeked" || name = "payload_of"

let is_patch_fn name =
  String.length name >= 6 && String.sub name 0 6 = "patch_"

let wire_required_basenames =
  [ "ipv4.ml"; "tcp_wire.ml"; "udp_wire.ml"; "icmp_wire.ml"; "pcap.ml" ]

let check_wire fi =
  let base = Filename.basename fi.fi_path in
  let layouts = extract_layouts fi in
  let required = List.mem base wire_required_basenames in
  match layouts with
  | [] ->
      if required then
        report ~file:fi.fi_path ~line:1 ~rule:"wire"
          "wire module declares no layout table (expected `let layout = [ (field, offset, width); ... ]`)"
  | layouts ->
      List.iter (check_layout_table fi) layouts;
      let tables = List.map fst layouts in
      let extent_max =
        List.fold_left (fun m l -> max m (layout_extent l)) 0 tables
      in
      (* gather accesses per function class *)
      let writes = ref [] and reads = ref [] and others = ref [] in
      let have_read_fn = ref false in
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var n ->
                      let name = n.txt in
                      if List.mem name write_fn_names then
                        writes :=
                          collect_accesses ~fn_name:name vb.pvb_expr @ !writes
                      else if is_read_fn name then begin
                        have_read_fn := true;
                        reads :=
                          collect_accesses ~fn_name:name vb.pvb_expr @ !reads
                      end
                      else if is_patch_fn name then
                        others :=
                          collect_accesses ~fn_name:name vb.pvb_expr @ !others
                  | _ -> ())
                vbs
          | _ -> ())
        fi.fi_structure;
      let all_accesses = !writes @ !reads @ !others in
      (* conformance: every access must cover whole fields of some table *)
      List.iter
        (fun a ->
          let fits l =
            let starts = List.map (fun (_, o, _) -> o) l.l_fields in
            let ends = List.map (fun (_, o, w) -> o + w) l.l_fields in
            List.mem a.ac_off starts
            && List.mem (a.ac_off + a.ac_width) ends
          in
          if a.ac_off + a.ac_width > extent_max then
            report_loc ~rule:"wire" a.ac_loc
              (Printf.sprintf
                 "%s: access at offset %d width %d runs past the %d-byte header"
                 a.ac_fn a.ac_off a.ac_width extent_max)
          else if not (List.exists fits tables) then
            report_loc ~rule:"wire" a.ac_loc
              (Printf.sprintf
                 "%s: access at offset %d width %d does not cover whole layout fields"
                 a.ac_fn a.ac_off a.ac_width))
        all_accesses;
      (* encode/decode asymmetry, single-table modules only *)
      match tables with
      | [ l ] when !have_read_fn ->
          let cover accs =
            let s = Hashtbl.create 32 in
            List.iter
              (fun a ->
                for b = a.ac_off to a.ac_off + a.ac_width - 1 do
                  Hashtbl.replace s b ()
                done)
              accs;
            s
          in
          let w = cover !writes and r = cover !reads in
          List.iter
            (fun (name, o, wid) ->
              if not (contains_substring name "checksum") then begin
                let written =
                  let ok = ref true in
                  for b = o to o + wid - 1 do
                    if not (Hashtbl.mem w b) then ok := false
                  done;
                  !ok
                in
                let read_any =
                  let any = ref false in
                  for b = o to o + wid - 1 do
                    if Hashtbl.mem r b then any := true
                  done;
                  !any
                in
                if written && not read_any then
                  report ~file:fi.fi_path ~line:1 ~rule:"wire"
                    (Printf.sprintf
                       "field %s (bytes %d..%d) is written by encode but never read by a peek/decode function"
                       name o (o + wid - 1))
                else if read_any && not written then
                  report ~file:fi.fi_path ~line:1 ~rule:"wire"
                    (Printf.sprintf
                       "field %s (bytes %d..%d) is read by peek/decode but never written by encode"
                       name o (o + wid - 1))
              end)
            l.l_fields
      | _ -> ()

(* ---------------------------------------------------------------- *)
(* Rule: allocation-free fast paths                                  *)

let bare_whitelist =
  [ "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr"; "mod"; "not"; "min";
    "max"; "abs"; "succ"; "pred"; "incr"; "decr"; "ignore"; "fst"; "snd";
    "truncate" ]

let raise_family = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let module_whitelist =
  [ ("Bytes", [ "length"; "get"; "set"; "unsafe_get"; "unsafe_set";
                "get_uint8"; "set_uint8"; "get_uint16_be"; "set_uint16_be";
                "get_uint16_le"; "set_uint16_le"; "get_int32_be";
                "set_int32_be"; "get_int32_le"; "set_int32_le"; "blit";
                "unsafe_blit"; "fill" ]);
    ("String", [ "length"; "get"; "unsafe_get" ]);
    ("Array", [ "length"; "get"; "set"; "unsafe_get"; "unsafe_set"; "blit" ]);
    ("Char", [ "code"; "chr"; "unsafe_chr" ]);
    ("Int32", [ "to_int"; "of_int"; "logand"; "logor"; "logxor"; "add";
                "sub"; "mul"; "shift_left"; "shift_right";
                "shift_right_logical" ]);
    ("Buffer", [ "length" ]);
    ("Hashtbl", [ "mem"; "length"; "remove" ]);
    ("Option", [ "is_none"; "is_some" ]);
    ("Queue", [ "is_empty"; "length" ]);
    ("Stdlib", bare_whitelist) ]

let is_symbolic name =
  name <> ""
  && (match name.[0] with
     | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '='
     | '>' | '?' | '@' | '^' | '|' | '~' ->
         true
     | _ -> false)

(* Does this expression mention Recorder.want/enabled?  Used to waive
   the then-branch of trace guards: tracing may allocate, but only once
   the operator has switched the recorder on. *)
let mentions_want e =
  let found = ref false in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_ident lid -> (
              match last_exn (flatten_lid lid.txt) with
              | "want" | "enabled" -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

let check_fastpath_body ctx fi ~fn_name body =
  let flag loc what =
    report_loc ~rule:"fastpath" loc
      (Printf.sprintf "[@@fastpath] %s: %s" fn_name what)
  in
  let resolve_head lid =
    let parts = flatten_lid lid in
    let parts =
      match parts with
      | m :: rest when Hashtbl.mem fi.fi_aliases m ->
          Hashtbl.find fi.fi_aliases m :: rest
      | _ -> parts
    in
    parts
  in
  let rec walk e =
    if has_attr "fastpath.exempt" e.pexp_attributes then ()
    else
      match e.pexp_desc with
      | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> ()
      | Pexp_construct (_, None) | Pexp_variant (_, None) -> ()
      | Pexp_construct (lid, Some _) ->
          flag e.pexp_loc
            (Printf.sprintf "constructor %s application allocates"
               (String.concat "." (flatten_lid lid.txt)))
      | Pexp_variant (v, Some _) ->
          flag e.pexp_loc (Printf.sprintf "variant `%s application allocates" v)
      | Pexp_tuple _ -> flag e.pexp_loc "tuple construction allocates"
      | Pexp_record _ -> flag e.pexp_loc "record construction allocates"
      | Pexp_array _ -> flag e.pexp_loc "array construction allocates"
      | Pexp_lazy _ -> flag e.pexp_loc "lazy value allocates"
      | Pexp_fun _ | Pexp_function _ ->
          flag e.pexp_loc "closure construction allocates"
      | Pexp_let (_, vbs, body) ->
          List.iter
            (fun vb ->
              match vb.pvb_expr.pexp_desc with
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt = Longident.Lident "ref"; _ };
                     _ },
                   [ (_, init) ]) ->
                  (* a let-bound ref is a local accumulator; flambda-free
                     OCaml still heap-allocates it, but it is bounded and
                     loop-local - the historical exception the checksum
                     folders rely on. *)
                  walk init
              | _ -> walk vb.pvb_expr)
            vbs;
          walk body
      | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
          let parts = resolve_head lid.txt in
          (match parts with
          | [ name ] when List.mem name raise_family -> ()
          | _ ->
              (match parts with
              | [ name ] ->
                  if
                    is_symbolic name || List.mem name bare_whitelist
                    || Hashtbl.mem ctx.tagged_names name
                    || not (Hashtbl.mem fi.fi_toplevel name)
                    (* unqualified + not a module-level binding here =>
                       parameter or let-bound local; its definition was
                       scanned (or flagged) where it was built *)
                  then ()
                  else if name = "ref" then
                    flag e.pexp_loc "ref allocation outside a let binding"
                  else
                    flag e.pexp_loc
                      (Printf.sprintf "call to untagged function %s" name)
              | parts ->
                  let name = last_exn parts in
                  let modname =
                    List.nth parts (List.length parts - 2)
                  in
                  let whitelisted =
                    match List.assoc_opt modname module_whitelist with
                    | Some fns -> List.mem name fns
                    | None -> false
                  in
                  if whitelisted || Hashtbl.mem ctx.tagged_names name then ()
                  else
                    flag e.pexp_loc
                      (Printf.sprintf "call to untagged function %s"
                         (String.concat "." parts)));
              List.iter (fun (_, a) -> walk a) args)
      | Pexp_apply (f, args) ->
          walk f;
          List.iter (fun (_, a) -> walk a) args
      | Pexp_ifthenelse (c, t, eo) ->
          walk c;
          if not (mentions_want c) then walk t;
          Option.iter walk eo
      | Pexp_sequence (a, b) ->
          walk a;
          walk b
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          walk scrut;
          List.iter
            (fun c ->
              Option.iter walk c.pc_guard;
              walk c.pc_rhs)
            cases
      | Pexp_field (e, _) -> walk e
      | Pexp_setfield (a, _, b) ->
          walk a;
          walk b
      | Pexp_constraint (e, _) -> walk e
      | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
          ()
      | Pexp_assert e -> walk e
      | Pexp_while (c, b) ->
          walk c;
          walk b
      | Pexp_for (_, a, b, _, body) ->
          walk a;
          walk b;
          walk body
      | Pexp_letmodule (_, _, body) | Pexp_open (_, body) -> walk body
      | _ -> ()
  in
  let rec strip e =
    match e.pexp_desc with
    | Pexp_fun (_, default, _, b) ->
        Option.iter walk default;
        strip b
    | Pexp_constraint (e, _) -> strip e
    | _ -> walk e
  in
  strip body

let check_fastpath ctx fi =
  let rec do_structure items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                if has_attr "fastpath" vb.pvb_attributes then
                  match pattern_names vb.pvb_pat with
                  | name :: _ ->
                      check_fastpath_body ctx fi ~fn_name:name vb.pvb_expr
                  | [] -> ())
              vbs
        | Pstr_module mb -> (
            let rec go me =
              match me.pmod_desc with
              | Pmod_structure items -> do_structure items
              | Pmod_constraint (me, _) -> go me
              | _ -> ()
            in
            go mb.pmb_expr)
        | _ -> ())
      items
  in
  do_structure fi.fi_structure

(* ---------------------------------------------------------------- *)
(* Rule: observability totality                                      *)

(* All string constants appearing anywhere in the run's files - used to
   check that a mapped counter name is actually a registered metrics
   key somewhere. *)
let all_string_constants files =
  let set = Hashtbl.create 256 in
  List.iter
    (fun fi ->
      let it =
        { Ast_iterator.default_iterator with
          expr =
            (fun sub e ->
              (match string_constant e with
              | Some s -> Hashtbl.replace set s ()
              | None -> ());
              Ast_iterator.default_iterator.expr sub e);
        }
      in
      it.structure it fi.fi_structure)
    files;
  set

(* All constructor applications/uses per file. *)
let constructor_uses fi =
  let set = Hashtbl.create 64 in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_construct (lid, _) ->
              Hashtbl.replace set (last_exn (flatten_lid lid.txt)) ()
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it fi.fi_structure;
  set

let find_drop_reason_decl fi =
  List.find_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) ->
          List.find_map
            (fun td ->
              if td.ptype_name.txt = "drop_reason" then
                match td.ptype_kind with
                | Ptype_variant cds ->
                    Some
                      (List.map (fun cd -> cd.pcd_name.txt) cds, td.ptype_loc)
                | _ -> None
              else None)
            tds
      | _ -> None)
    fi.fi_structure

let find_counter_mapping fi =
  List.find_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.find_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var n when n.txt = "drop_reason_counter" ->
                  let rec cases_of e =
                    match e.pexp_desc with
                    | Pexp_function cases -> cases
                    | Pexp_fun (_, _, _, b) -> cases_of b
                    | Pexp_match (_, cases) -> cases
                    | _ -> []
                  in
                  let mapping =
                    List.filter_map
                      (fun c ->
                        match c.pc_lhs.ppat_desc with
                        | Ppat_construct (lid, _) -> (
                            match string_constant c.pc_rhs with
                            | Some s ->
                                Some (last_exn (flatten_lid lid.txt), s)
                            | None -> None)
                        | _ -> None)
                      (cases_of vb.pvb_expr)
                  in
                  Some (mapping, vb.pvb_loc)
              | _ -> None)
            vbs
      | _ -> None)
    fi.fi_structure

let check_obs ctx =
  let strings = all_string_constants ctx.files in
  List.iter
    (fun fi ->
      match find_drop_reason_decl fi with
      | None -> ()
      | Some (ctors, type_loc) -> (
          (* constructor -> counter mapping must exist and be total *)
          match find_counter_mapping fi with
          | None ->
              report_loc ~rule:"obs" type_loc
                "drop_reason has no drop_reason_counter mapping in its defining module"
          | Some (mapping, map_loc) ->
              List.iter
                (fun c ->
                  match List.assoc_opt c mapping with
                  | None ->
                      report_loc ~rule:"obs" map_loc
                        (Printf.sprintf
                           "drop_reason constructor %s has no counter in drop_reason_counter"
                           c)
                  | Some counter ->
                      if not (Hashtbl.mem strings counter) then
                        report_loc ~rule:"obs" map_loc
                          (Printf.sprintf
                             "counter \"%s\" (for %s) is not a registered metrics key anywhere in the tree"
                             counter c))
                ctors;
              (* each constructor must be emitted somewhere else *)
              List.iter
                (fun c ->
                  let used_elsewhere =
                    List.exists
                      (fun other ->
                        other.fi_path <> fi.fi_path
                        && Hashtbl.mem (constructor_uses other) c)
                      ctx.files
                  in
                  if not used_elsewhere then
                    report_loc ~rule:"obs" type_loc
                      (Printf.sprintf
                         "drop_reason constructor %s has no trace emission site outside %s"
                         c
                         (Filename.basename fi.fi_path)))
                ctors))
    ctx.files

(* ---------------------------------------------------------------- *)

let run ~check_mli_rule files =
  let ctx = make_ctx files in
  List.iter
    (fun fi ->
      if check_mli_rule then check_mli fi;
      check_wire fi;
      check_fastpath ctx fi)
    files;
  check_obs ctx;
  ctx
