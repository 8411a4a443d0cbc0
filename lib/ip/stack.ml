module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Icmp = Packet.Icmp_wire

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable dropped_malformed : int;
  mutable dropped_no_route : int;
  mutable dropped_ttl : int;
  mutable dropped_no_proto : int;
  mutable dropped_not_forwarding : int;
  mutable dropped_df : int;
  mutable dropped_unroutable_icmp : int;
  mutable fragments_made : int;
  mutable icmp_tx : int;
  mutable echo_replies : int;
  mutable route_cache_hits : int;
  mutable route_cache_misses : int;
}

let new_counters () =
  {
    sent = 0;
    received = 0;
    delivered = 0;
    forwarded = 0;
    dropped_malformed = 0;
    dropped_no_route = 0;
    dropped_ttl = 0;
    dropped_no_proto = 0;
    dropped_not_forwarding = 0;
    dropped_df = 0;
    dropped_unroutable_icmp = 0;
    fragments_made = 0;
    icmp_tx = 0;
    echo_replies = 0;
    route_cache_hits = 0;
    route_cache_misses = 0;
  }

type send_error = [ `No_route | `Too_big ]

type t = {
  net : Netsim.t;
  eng : Engine.t;
  node : Netsim.node_id;
  fwd : bool;
  mutable fast : bool;
  table : Route_table.t;
  (* Destination -> route memo: a direct-mapped array of
     [route_cache_slots] slots, so the cache is structurally bounded no
     matter how many distinct destinations transit this stack (a gateway
     in an E17-scale catenet sees 10^4..10^5 of them; the Hashtbl this
     replaces grew one bucket per destination).  A slot is live only
     while its stamp equals the table's current generation, so any
     add/remove/clear invalidates everything at once — no flush pass —
     and eviction is collision-replaces-occupant.  Negative answers are
     cached too: a routing churn bumps the generation, so a later add is
     never masked.  Hits touch three arrays and allocate nothing. *)
  cache_key : int array;  (* destination address bits *)
  cache_val : Route_table.route option array;  (* pre-boxed by the table *)
  cache_stamp : int array;  (* table generation at fill; -1 = empty *)
  mutable iface_addrs : (Netsim.iface * Addr.t) list;
  protos : (int, Ipv4.header -> bytes -> unit) Hashtbl.t;
  frame_protos : (int, Ipv4.header -> bytes -> pos:int -> unit) Hashtbl.t;
  mutable error_handlers : (from:Addr.t -> Icmp.t -> unit) list;
  mutable echo_reply_handler : (id:int -> seq:int -> payload:bytes -> unit) option;
  reasm : Reassembly.t;
  mutable next_id : int;
  c : counters;
  mutable accounting : Accounting.t option;
  mutable on_flush : (unit -> unit) list;
      (* Soft-state subscribers above IP (resolver caches, name-server
         state): run after flush_soft_state clears the stack's own soft
         state, so crash amnesia reaches every layer that caches. *)
}

let net t = t.net
let engine t = t.eng
let node_id t = t.node
let table t = t.table
let forwarding t = t.fwd
let set_fast_path t v = t.fast <- v
let fast_path t = t.fast
let counters t = t.c
let accounting t = t.accounting

(* The one writer of the [dropped_*] counters: every IP-layer drop is
   counted and traced by this call, so the counter and the recorder
   cannot disagree.  Drop paths are cold, so the [want] check can live
   here; hot-path events guard inline before constructing anything. *)
let drop t reason ~src ~dst =
  let c = t.c in
  (match reason with
  | Trace.Event.Malformed -> c.dropped_malformed <- c.dropped_malformed + 1
  | Trace.Event.No_route -> c.dropped_no_route <- c.dropped_no_route + 1
  | Trace.Event.Ttl_expired -> c.dropped_ttl <- c.dropped_ttl + 1
  | Trace.Event.No_proto -> c.dropped_no_proto <- c.dropped_no_proto + 1
  | Trace.Event.Not_forwarding ->
      c.dropped_not_forwarding <- c.dropped_not_forwarding + 1
  | Trace.Event.Df_needed -> c.dropped_df <- c.dropped_df + 1
  | Trace.Event.Unroutable_icmp ->
      c.dropped_unroutable_icmp <- c.dropped_unroutable_icmp + 1
  | Trace.Event.Queue_full | Trace.Event.Link_loss | Trace.Event.Link_down
  | Trace.Event.Link_mtu | Trace.Event.Reassembly_timeout ->
      invalid_arg "Ip.Stack.drop: not an IP-layer drop reason");
  if Trace.want Trace.Cls.ip then
    Trace.emit (Trace.Event.Ip_drop { node = t.node; src; dst; reason })

let trace_deliver t (h : Ipv4.header) ~len =
  if Trace.want Trace.Cls.ip then
    Trace.emit
      (Trace.Event.Ip_deliver
         { node = t.node; src = h.Ipv4.src; dst = h.Ipv4.dst;
           proto = Ipv4.Proto.to_int h.Ipv4.proto; len })

(* Route lookup with a per-stack memo.  The memo only pays off on the fast
   path; with the fast path disabled we hit the table directly so that the
   legacy path really is the pre-cache baseline (E13 compares the two). *)
let route_cache_capacity = 4096 (* power of two: slot index is a mask *)

let addr_key a = Int32.to_int (Addr.to_int32 a) land 0xffffffff [@@fastpath]

let lookup_route t dst =
  if not t.fast then Route_table.lookup t.table dst
  else begin
    let key = addr_key dst in
    (* Fibonacci hash: spread region/host structure across the slots. *)
    let slot = (key * 0x2545F491) lsr 13 land (route_cache_capacity - 1) in
    let gen = Route_table.generation t.table in
    if
      Array.unsafe_get t.cache_stamp slot = gen
      && Array.unsafe_get t.cache_key slot = key
    then begin
      t.c.route_cache_hits <- t.c.route_cache_hits + 1;
      Array.unsafe_get t.cache_val slot
    end
    else begin
      t.c.route_cache_misses <- t.c.route_cache_misses + 1;
      let r = Route_table.lookup t.table dst in
      Array.unsafe_set t.cache_key slot key;
      Array.unsafe_set t.cache_val slot r;
      Array.unsafe_set t.cache_stamp slot gen;
      r
    end
  end
[@@fastpath]

let iface_addr t i = List.assoc_opt i t.iface_addrs

let addresses t = List.map snd t.iface_addrs

let has_addr t a = List.exists (fun (_, a') -> Addr.equal a a') t.iface_addrs

let primary_addr t =
  match t.iface_addrs with
  | [] -> failwith "Ip.Stack.primary_addr: no address configured"
  | (_, a) :: _ -> a

let configure_iface t iface ~addr ~prefix_len =
  t.iface_addrs <- t.iface_addrs @ [ (iface, addr) ];
  Route_table.add t.table
    {
      Route_table.prefix = Addr.Prefix.make addr prefix_len;
      iface;
      next_hop = None;
      metric = 0;
    }

let register_proto t proto f =
  let n = Ipv4.Proto.to_int proto in
  if n = 1 then invalid_arg "Ip.Stack.register_proto: ICMP is built in";
  Hashtbl.replace t.protos n f

(* A frame handler is an optimisation overlay, not a replacement: the
   receive fast path hands it the whole frame (payload at [pos]) when the
   datagram needs no reassembly and no accounting; every other road —
   fragments, slow path, loopback — still goes through the [register_proto]
   handler, which therefore must also be registered. *)
let register_proto_frame t proto f =
  let n = Ipv4.Proto.to_int proto in
  if n = 1 then invalid_arg "Ip.Stack.register_proto_frame: ICMP is built in";
  Hashtbl.replace t.frame_protos n f

let add_error_handler t f = t.error_handlers <- t.error_handlers @ [ f ]
let set_echo_reply_handler t f = t.echo_reply_handler <- Some f

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  id

(* Split [payload] into fragments that fit [mtu] on the wire; offsets are
   relative to the original unfragmented datagram, so forwarding an
   already-fragmented datagram composes correctly. *)
let fragment_payload ~mtu (h : Ipv4.header) payload =
  let max_data = (mtu - Ipv4.header_size) / 8 * 8 in
  assert (max_data > 0);
  let len = Bytes.length payload in
  let rec cut off acc =
    if off >= len then List.rev acc
    else begin
      let n = min max_data (len - off) in
      let last = off + n >= len in
      let fh =
        {
          h with
          Ipv4.frag_offset = h.Ipv4.frag_offset + off;
          more_fragments = (if last then h.Ipv4.more_fragments else true);
        }
      in
      cut (off + n) ((fh, Bytes.sub payload off n) :: acc)
    end
  in
  cut 0 []

let transmit t iface ~priority frame =
  (* [Netsim.send] clones the frame into the link queue; that copy is the
     hand-off to the simulated wire, not fast-path overhead. *)
  ignore (Netsim.send t.net t.node ~priority ~iface frame [@fastpath.exempt])
[@@fastpath]

(* Emit (or fragment and emit) one datagram on [iface].  Low-delay ToS
   datagrams ride the link's priority queue — the per-hop half of the
   type-of-service mechanism. *)
let emit t iface (h : Ipv4.header) payload =
  let priority = h.Ipv4.tos = Ipv4.Tos.Low_delay in
  let mtu = Netsim.iface_mtu t.net t.node iface in
  let wire_len = Ipv4.header_size + Bytes.length payload in
  if wire_len <= mtu then begin
    transmit t iface ~priority (Ipv4.encode h ~payload);
    Ok ()
  end
  else if h.Ipv4.dont_fragment then begin
    drop t Trace.Event.Df_needed ~src:h.Ipv4.src ~dst:h.Ipv4.dst;
    Error `Too_big
  end
  else begin
    let frags = fragment_payload ~mtu h payload in
    List.iter
      (fun (fh, fp) ->
        t.c.fragments_made <- t.c.fragments_made + 1;
        if Trace.want Trace.Cls.frag then
          Trace.emit
            (Trace.Event.Ip_fragment
               { node = t.node; id = fh.Ipv4.id;
                 frag_offset = fh.Ipv4.frag_offset;
                 len = Bytes.length fp });
        transmit t iface ~priority (Ipv4.encode fh ~payload:fp))
      frags;
    Ok ()
  end

let account t h payload =
  match t.accounting with
  | None -> ()
  | Some acc ->
      Accounting.record acc h ~payload
        ~wire_bytes:(Ipv4.header_size + Bytes.length payload)

(* ICMP plumbing -------------------------------------------------------- *)

let send_raw t ~route (h : Ipv4.header) payload =
  ignore (emit t route.Route_table.iface h payload)

let icmp_to t ~dst msg =
  match lookup_route t dst with
  | None ->
      (* Cannot even route the error back.  The datagram is still dead,
         but the loss is no longer silent: it is counted and recorded, so
         a black hole of ICMP errors shows up in the ledger instead of
         vanishing (the accountability gap this subsystem closes). *)
      let src =
        match t.iface_addrs with (_, a) :: _ -> a | [] -> Addr.any
      in
      drop t Trace.Event.Unroutable_icmp ~src ~dst
  | Some route ->
      let src =
        match iface_addr t route.Route_table.iface with
        | Some a -> a
        | None -> ( match addresses t with a :: _ -> a | [] -> Addr.any)
      in
      let h =
        Ipv4.make_header ~proto:Ipv4.Proto.Icmp ~src ~dst
          ~id:(fresh_id t) ()
      in
      t.c.icmp_tx <- t.c.icmp_tx + 1;
      send_raw t ~route h (Icmp.encode msg)

(* Never generate ICMP errors about ICMP errors (RFC 792). *)
let may_report_error (h : Ipv4.header) payload =
  match h.Ipv4.proto with
  | Ipv4.Proto.Icmp ->
      Bytes.length payload > 0
      &&
      let ty = Bytes.get_uint8 payload 0 in
      ty = 8 || ty = 0 (* only echo traffic may trigger errors *)
  | Ipv4.Proto.Tcp | Ipv4.Proto.Udp | Ipv4.Proto.Other _ -> true

let report_unreachable t (h : Ipv4.header) payload code =
  if may_report_error h payload then begin
    let original =
      Icmp.original_of ~ip_header:(Ipv4.encode h ~payload)
    in
    icmp_to t ~dst:h.Ipv4.src (Icmp.Dest_unreachable { code; original })
  end

let report_time_exceeded t (h : Ipv4.header) payload =
  if may_report_error h payload then begin
    let original = Icmp.original_of ~ip_header:(Ipv4.encode h ~payload) in
    icmp_to t ~dst:h.Ipv4.src (Icmp.Time_exceeded { original })
  end

(* Local delivery ------------------------------------------------------- *)

let deliver_icmp t (h : Ipv4.header) data =
  match Icmp.decode data with
  | Error _ ->
      drop t Trace.Event.Malformed ~src:h.Ipv4.src ~dst:h.Ipv4.dst
  | Ok (Icmp.Echo_request { id; seq; payload }) ->
      t.c.delivered <- t.c.delivered + 1;
      t.c.echo_replies <- t.c.echo_replies + 1;
      trace_deliver t h ~len:(Bytes.length data);
      icmp_to t ~dst:h.Ipv4.src (Icmp.Echo_reply { id; seq; payload })
  | Ok (Icmp.Echo_reply { id; seq; payload }) -> (
      t.c.delivered <- t.c.delivered + 1;
      trace_deliver t h ~len:(Bytes.length data);
      match t.echo_reply_handler with
      | Some f -> f ~id ~seq ~payload
      | None -> ())
  | Ok (Icmp.Dest_unreachable _ as msg) | Ok (Icmp.Time_exceeded _ as msg) ->
      t.c.delivered <- t.c.delivered + 1;
      trace_deliver t h ~len:(Bytes.length data);
      List.iter (fun f -> f ~from:h.Ipv4.src msg) t.error_handlers

let deliver_local t (h : Ipv4.header) payload =
  match Reassembly.push t.reasm h payload with
  | Reassembly.Incomplete -> ()
  | Reassembly.Complete data -> (
      account t h data;
      match h.Ipv4.proto with
      | Ipv4.Proto.Icmp -> deliver_icmp t h data
      | p -> (
          match Hashtbl.find_opt t.protos (Ipv4.Proto.to_int p) with
          | Some f ->
              t.c.delivered <- t.c.delivered + 1;
              trace_deliver t h ~len:(Bytes.length data);
              f h data
          | None ->
              drop t Trace.Event.No_proto ~src:h.Ipv4.src ~dst:h.Ipv4.dst;
              report_unreachable t h data Icmp.Protocol_unreachable))

(* Forwarding ----------------------------------------------------------- *)

(* Slow (decode/re-encode) forwarding: materialized header and payload in,
   fresh frame out via [emit].  Still the only road for datagrams that need
   fragmenting, and the whole road when the fast path is switched off. *)
let forward t (h : Ipv4.header) payload =
  if h.Ipv4.ttl <= 1 then begin
    drop t Trace.Event.Ttl_expired ~src:h.Ipv4.src ~dst:h.Ipv4.dst;
    report_time_exceeded t h payload
  end
  else begin
    let h = { h with Ipv4.ttl = h.Ipv4.ttl - 1 } in
    match lookup_route t h.Ipv4.dst with
    | None ->
        drop t Trace.Event.No_route ~src:h.Ipv4.src ~dst:h.Ipv4.dst;
        report_unreachable t h payload Icmp.Net_unreachable
    | Some route -> (
        t.c.forwarded <- t.c.forwarded + 1;
        if Trace.want Trace.Cls.ip then
          Trace.emit
            (Trace.Event.Ip_forward
               { node = t.node; src = h.Ipv4.src; dst = h.Ipv4.dst;
                 ttl = h.Ipv4.ttl; len = Bytes.length payload });
        account t h payload;
        match emit t route.Route_table.iface h payload with
        | Ok () -> ()
        | Error `Too_big ->
            report_unreachable t h payload Icmp.Fragmentation_needed)
  end

(* Fast transit: patch TTL and checksum in the received frame (RFC 1624)
   and retransmit the very same bytes — two bytes mutated, no payload copy,
   no re-encode.  Anything off the happy path (TTL expiry, no route, frame
   larger than the next link's MTU, i.e. fragmentation or a DF drop) bails
   out to the slow path, which handles every edge already. *)
let forward_fast t (h : Ipv4.header) frame =
  match lookup_route t h.Ipv4.dst with
  | Some route
    when h.Ipv4.ttl > 1
         && Bytes.length frame
            <= Netsim.iface_mtu t.net t.node route.Route_table.iface ->
      Ipv4.patch_ttl frame;
      t.c.forwarded <- t.c.forwarded + 1;
      if Trace.want Trace.Cls.ip then
        Trace.emit
          (Trace.Event.Ip_forward
             { node = t.node; src = h.Ipv4.src; dst = h.Ipv4.dst;
               ttl = h.Ipv4.ttl - 1; len = Bytes.length frame });
      (* Sketch-mode accounting updates flat counters in place, so
         goal 7 no longer costs a payload copy or a slow-path bail. *)
      (match t.accounting with
      | None -> ()
      | Some acc -> Accounting.record_fast acc h ~frame);
      transmit t route.Route_table.iface
        ~priority:(h.Ipv4.tos = Ipv4.Tos.Low_delay)
        frame
  | Some _ | None ->
      (* Bail to the slow path, which owns every edge case. *)
      (forward t h (Ipv4.payload_of frame) [@fastpath.exempt])
[@@fastpath]

let receive t ~iface:_ frame =
  if t.fast then begin
    match Ipv4.peek frame with
    | Error _ ->
        drop t Trace.Event.Malformed ~src:Addr.any ~dst:Addr.any
    | Ok h ->
        t.c.received <- t.c.received + 1;
        if has_addr t h.Ipv4.dst then begin
          (* Hand complete datagrams to a frame handler in place; only
             delivery roads a frame handler cannot take (fragments, plain
             handlers) materialize the payload. *)
          let frame_handler =
            if h.Ipv4.frag_offset = 0 && not h.Ipv4.more_fragments then
              Hashtbl.find_opt t.frame_protos (Ipv4.Proto.to_int h.Ipv4.proto)
            else None
          in
          match frame_handler with
          | Some f ->
              t.c.delivered <- t.c.delivered + 1;
              (match t.accounting with
              | None -> ()
              | Some acc -> Accounting.record_fast acc h ~frame);
              trace_deliver t h
                ~len:(Bytes.length frame - Ipv4.header_size);
              f h frame ~pos:Ipv4.header_size
          | None -> deliver_local t h (Ipv4.payload_of frame)
        end
        else if t.fwd then forward_fast t h frame
        else begin
          drop t Trace.Event.Not_forwarding ~src:h.Ipv4.src ~dst:h.Ipv4.dst
        end
  end
  else
    match Ipv4.decode frame with
    | Error _ ->
        drop t Trace.Event.Malformed ~src:Addr.any ~dst:Addr.any
    | Ok (h, payload) ->
        t.c.received <- t.c.received + 1;
        if has_addr t h.Ipv4.dst then deliver_local t h payload
        else if t.fwd then forward t h payload
        else begin
          drop t Trace.Event.Not_forwarding ~src:h.Ipv4.src ~dst:h.Ipv4.dst
        end

(* Origination ---------------------------------------------------------- *)

let send t ?(tos = Ipv4.Tos.Routine) ?(ttl = 64) ?(dont_fragment = false)
    ?src ~proto ~dst payload =
  if has_addr t dst then begin
    (* Loopback: deliver through the engine so ordering matches the wire. *)
    let src = match src with Some s -> s | None -> primary_addr t in
    let h =
      Ipv4.make_header ~tos ~id:(fresh_id t) ~dont_fragment ~ttl ~proto ~src
        ~dst ()
    in
    t.c.sent <- t.c.sent + 1;
    Engine.after t.eng 1 (fun () -> deliver_local t h payload);
    Ok ()
  end
  else
    match lookup_route t dst with
    | None ->
        drop t Trace.Event.No_route
          ~src:(match src with Some s -> s | None -> Addr.any)
          ~dst;
        Error `No_route
    | Some route ->
        let src =
          match src with
          | Some s -> s
          | None -> (
              match iface_addr t route.Route_table.iface with
              | Some a -> a
              | None -> primary_addr t)
        in
        let h =
          Ipv4.make_header ~tos ~id:(fresh_id t) ~dont_fragment ~ttl ~proto
            ~src ~dst ()
        in
        t.c.sent <- t.c.sent + 1;
        emit t route.Route_table.iface h payload

let payload_of_frame frame =
  Bytes.sub frame Ipv4.header_size (Bytes.length frame - Ipv4.header_size)

(* Origination without the payload copy: the caller hands over a full
   frame whose first [Ipv4.header_size] bytes are a reserved prefix and
   whose transport segment is already in place after it.  On the common
   road — routed out an interface, fits the MTU — the IP header is written
   into the prefix and the very same buffer is transmitted.  Loopback and
   fragmentation fall back to the [send]/[emit] machinery (both need a
   materialized payload anyway).  Counters match [send] exactly. *)
let send_frame t ?(tos = Ipv4.Tos.Routine) ?(ttl = 64) ?(dont_fragment = false)
    ?src ~proto ~dst frame =
  if has_addr t dst then begin
    (* Loopback: deliver through the engine so ordering matches the wire. *)
    let src = match src with Some s -> s | None -> primary_addr t in
    let h =
      Ipv4.make_header ~tos ~id:(fresh_id t) ~dont_fragment ~ttl ~proto ~src
        ~dst ()
    in
    t.c.sent <- t.c.sent + 1;
    let payload = payload_of_frame frame in
    Engine.after t.eng 1 (fun () -> deliver_local t h payload);
    Ok ()
  end
  else
    match lookup_route t dst with
    | None ->
        drop t Trace.Event.No_route
          ~src:(match src with Some s -> s | None -> Addr.any)
          ~dst;
        Error `No_route
    | Some route ->
        let src =
          match src with
          | Some s -> s
          | None -> (
              match iface_addr t route.Route_table.iface with
              | Some a -> a
              | None -> primary_addr t)
        in
        let h =
          Ipv4.make_header ~tos ~id:(fresh_id t) ~dont_fragment ~ttl ~proto
            ~src ~dst ()
        in
        t.c.sent <- t.c.sent + 1;
        let iface = route.Route_table.iface in
        if Bytes.length frame <= Netsim.iface_mtu t.net t.node iface then begin
          Ipv4.encode_into h frame;
          transmit t iface ~priority:(tos = Ipv4.Tos.Low_delay) frame;
          Ok ()
        end
        else emit t iface h (payload_of_frame frame)

let icmp_unreachable t h payload code = report_unreachable t h payload code

let send_echo_request t ~dst ~id ~seq ~payload =
  let msg = Icmp.Echo_request { id; seq; payload } in
  ignore (send t ~proto:Ipv4.Proto.Icmp ~dst (Icmp.encode msg))

let enable_accounting ?mode t =
  match t.accounting with
  | Some acc -> acc
  | None ->
      let acc = Accounting.create ?mode () in
      t.accounting <- Some acc;
      acc

let reassembly_expired t = Reassembly.expired t.reasm

(* Crash semantics (fate-sharing, Clark goal 1): everything a gateway
   holds that is *derived* — the destination cache, learned routes, and
   half-assembled datagrams — dies with it.  Connected routes survive
   because they are configuration, re-derived from the interfaces
   themselves at boot, not from protocol exchange. *)
let flush_soft_state t =
  Array.fill t.cache_stamp 0 route_cache_capacity (-1);
  Reassembly.flush t.reasm;
  List.iter
    (fun (r : Route_table.route) ->
      if r.next_hop <> None || r.metric > 0 then Route_table.remove t.table r.prefix)
    (Route_table.entries t.table);
  if Trace.want Trace.Cls.fault then
    Trace.emit (Trace.Event.Fault_soft_reset { node = t.node });
  List.iter (fun f -> f ()) t.on_flush

let on_soft_flush t f = t.on_flush <- t.on_flush @ [ f ]

let metrics_items t () =
  let i v = Trace.Metrics.Int v in
  [ ("sent", i t.c.sent);
    ("received", i t.c.received);
    ("delivered", i t.c.delivered);
    ("forwarded", i t.c.forwarded);
    ("dropped_malformed", i t.c.dropped_malformed);
    ("dropped_no_route", i t.c.dropped_no_route);
    ("dropped_ttl", i t.c.dropped_ttl);
    ("dropped_no_proto", i t.c.dropped_no_proto);
    ("dropped_not_forwarding", i t.c.dropped_not_forwarding);
    ("dropped_df", i t.c.dropped_df);
    ("dropped_unroutable_icmp", i t.c.dropped_unroutable_icmp);
    ("fragments_made", i t.c.fragments_made);
    ("icmp_tx", i t.c.icmp_tx);
    ("echo_replies", i t.c.echo_replies);
    ("route_cache_hits", i t.c.route_cache_hits);
    ("route_cache_misses", i t.c.route_cache_misses);
    ("reassembly_pending", i (Reassembly.pending t.reasm));
    ("reassembly_expired", i (reassembly_expired t)) ]

let create ?(forwarding = false) net node =
  let eng = Netsim.engine net in
  let t =
    {
      net;
      eng;
      node;
      fwd = forwarding;
      fast = true;
      cache_key = Array.make route_cache_capacity 0;
      cache_val = Array.make route_cache_capacity None;
      cache_stamp = Array.make route_cache_capacity (-1);
      table = Route_table.create ();
      iface_addrs = [];
      protos = Hashtbl.create 4;
      frame_protos = Hashtbl.create 4;
      error_handlers = [];
      echo_reply_handler = None;
      reasm = Reassembly.create ~node eng;
      next_id = 1;
      c = new_counters ();
      accounting = None;
      on_flush = [];
    }
  in
  Netsim.set_handler net node (fun ~iface frame -> receive t ~iface frame);
  t
