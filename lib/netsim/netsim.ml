type node_id = int
type iface = int
type link_id = int

type profile = {
  name : string;
  bandwidth_bps : int;
  delay_us : int;
  mtu : int;
  loss : float;
  queue_capacity : int;
  jitter_us : int;
}

let profile ?(bandwidth_bps = 10_000_000) ?(delay_us = 1_000) ?(mtu = 1500)
    ?(loss = 0.0) ?(queue_capacity = 32) ?(jitter_us = 0) name =
  { name; bandwidth_bps; delay_us; mtu; loss; queue_capacity; jitter_us }

module Profiles = struct
  let ethernet =
    profile "ethernet" ~bandwidth_bps:10_000_000 ~delay_us:100 ~mtu:1500

  let arpanet_trunk =
    profile "arpanet-trunk" ~bandwidth_bps:56_000 ~delay_us:20_000 ~mtu:1006

  let satellite =
    profile "satellite" ~bandwidth_bps:1_500_000 ~delay_us:250_000 ~mtu:1500

  let serial_9600 =
    profile "serial-9600" ~bandwidth_bps:9_600 ~delay_us:5_000 ~mtu:576

  let packet_radio =
    profile "packet-radio" ~bandwidth_bps:400_000 ~delay_us:10_000 ~mtu:254
      ~loss:0.02

  let t1 = profile "t1" ~bandwidth_bps:1_536_000 ~delay_us:10_000 ~mtu:1500

  let fast_lan =
    profile "fast-lan" ~bandwidth_bps:100_000_000 ~delay_us:50 ~mtu:1500
end

type link_stats = {
  tx_frames : int;
  tx_bytes : int;
  delivered_frames : int;
  drops_queue : int;
  drops_loss : int;
  drops_down : int;
  drops_mtu : int;
}

let zero_stats =
  {
    tx_frames = 0;
    tx_bytes = 0;
    delivered_frames = 0;
    drops_queue = 0;
    drops_loss = 0;
    drops_down = 0;
    drops_mtu = 0;
  }

let add_stats a b =
  {
    tx_frames = a.tx_frames + b.tx_frames;
    tx_bytes = a.tx_bytes + b.tx_bytes;
    delivered_frames = a.delivered_frames + b.delivered_frames;
    drops_queue = a.drops_queue + b.drops_queue;
    drops_loss = a.drops_loss + b.drops_loss;
    drops_down = a.drops_down + b.drops_down;
    drops_mtu = a.drops_mtu + b.drops_mtu;
  }

(* One transmission direction of a link: a bounded FIFO plus a busy
   transmitter.  [epoch] invalidates scheduled completions/deliveries when
   the link is torn down. *)
type direction = {
  queue : bytes Queue.t; (* ordinary traffic *)
  queue_hi : bytes Queue.t; (* low-delay ToS traffic *)
  mutable busy : bool;
  mutable epoch : int;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable delivered_frames : int;
  mutable drops_queue : int;
  mutable drops_loss : int;
  mutable drops_down : int;
  mutable drops_mtu : int;
}

type link = {
  id : link_id;
  prof : profile;
  a : node_id * iface;
  b : node_id * iface;
  mutable up : bool;
  dirs : direction array; (* 0: a->b, 1: b->a *)
  rng : Stdext.Rng.t;
  mutable tap : (dir:int -> bytes -> unit) option;
      (* Observes every frame at transmission completion — the sender's
         wire, before the loss draw — for pcap capture. *)
}

type node = {
  name : string;
  mutable node_up : bool;
  mutable handler : (iface:iface -> bytes -> unit) option;
  mutable iface_arr : (link_id * int) array; (* iface -> link, side *)
  mutable n_ifaces : int;
}

type t = {
  eng : Engine.t;
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable links : link array;
  mutable n_links : int;
  rng : Stdext.Rng.t;
  mutable default_handler :
    (node:node_id -> iface:iface -> bytes -> unit) option;
      (* Fallback receive path for nodes with no per-node handler: one
         shared closure serves an arbitrary population of cheap hosts
         (E17's pooled endpoints), instead of a closure web per node. *)
}

let create ?(seed = 42) eng =
  { eng; nodes = [||]; n_nodes = 0; links = [||]; n_links = 0;
    rng = Stdext.Rng.create seed; default_handler = None }

let engine t = t.eng

let add_node t name =
  let n =
    { name; node_up = true; handler = None; iface_arr = [||];
      n_ifaces = 0 }
  in
  if t.n_nodes = Array.length t.nodes then begin
    let cap = if t.n_nodes = 0 then 8 else t.n_nodes * 2 in
    let arr = Array.make cap n in
    Array.blit t.nodes 0 arr 0 t.n_nodes;
    t.nodes <- arr
  end;
  t.nodes.(t.n_nodes) <- n;
  t.n_nodes <- t.n_nodes + 1;
  t.n_nodes - 1

let node_count t = t.n_nodes

let node t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Netsim: bad node id";
  t.nodes.(id)
[@@fastpath]

let node_name t id = (node t id).name

let new_direction () =
  {
    queue = Queue.create ();
    queue_hi = Queue.create ();
    busy = false;
    epoch = 0;
    tx_frames = 0;
    tx_bytes = 0;
    delivered_frames = 0;
    drops_queue = 0;
    drops_loss = 0;
    drops_down = 0;
    drops_mtu = 0;
  }

let attach_iface t node_id link_id side =
  let n = node t node_id in
  if n.n_ifaces = Array.length n.iface_arr then begin
    let cap = if n.n_ifaces = 0 then 4 else n.n_ifaces * 2 in
    let arr = Array.make cap (0, 0) in
    Array.blit n.iface_arr 0 arr 0 n.n_ifaces;
    n.iface_arr <- arr
  end;
  n.iface_arr.(n.n_ifaces) <- (link_id, side);
  n.n_ifaces <- n.n_ifaces + 1;
  n.n_ifaces - 1

let add_link t prof na nb =
  if na = nb then invalid_arg "Netsim.add_link: self-link";
  ignore (node t na);
  ignore (node t nb);
  let id = t.n_links in
  let ia = attach_iface t na id 0 in
  let ib = attach_iface t nb id 1 in
  let l =
    {
      id;
      prof;
      a = (na, ia);
      b = (nb, ib);
      up = true;
      dirs = [| new_direction (); new_direction () |];
      rng = Stdext.Rng.split t.rng;
      tap = None;
    }
  in
  if t.n_links = Array.length t.links then begin
    let cap = if t.n_links = 0 then 8 else t.n_links * 2 in
    let arr = Array.make cap l in
    Array.blit t.links 0 arr 0 t.n_links;
    t.links <- arr
  end;
  t.links.(t.n_links) <- l;
  t.n_links <- t.n_links + 1;
  id

let link_count t = t.n_links

let link t id =
  if id < 0 || id >= t.n_links then invalid_arg "Netsim: bad link id";
  t.links.(id)
[@@fastpath]

let iface_count t nid = (node t nid).n_ifaces

let iface_entry t nid i =
  let n = node t nid in
  if i < 0 || i >= n.n_ifaces then invalid_arg "Netsim: bad iface";
  n.iface_arr.(i)
[@@fastpath]

let iface_link t nid i = fst (iface_entry t nid i) [@@fastpath]

let iface_mtu t nid i = (link t (iface_link t nid i)).prof.mtu [@@fastpath]

let peer t nid i =
  let lid, side = iface_entry t nid i in
  let l = link t lid in
  if side = 0 then l.b else l.a

let endpoints t lid =
  let l = link t lid in
  (l.a, l.b)

let set_handler t nid f = (node t nid).handler <- Some f
let set_default_handler t f = t.default_handler <- f

let link_between t na nb =
  let rec scan i =
    if i >= t.n_links then None
    else
      let l = t.links.(i) in
      let fa, _ = l.a and fb, _ = l.b in
      if (fa = na && fb = nb) || (fa = nb && fb = na) then Some l.id
      else scan (i + 1)
  in
  scan 0

(* The one writer of the [drops_*] counters: every link-layer drop is
   counted and traced by this call, so the counter and the recorder
   cannot disagree. *)
let drop l ~dir ~len reason =
  let d = l.dirs.(dir) in
  (match reason with
  | Trace.Event.Queue_full -> d.drops_queue <- d.drops_queue + 1
  | Trace.Event.Link_loss -> d.drops_loss <- d.drops_loss + 1
  | Trace.Event.Link_down -> d.drops_down <- d.drops_down + 1
  | Trace.Event.Link_mtu -> d.drops_mtu <- d.drops_mtu + 1
  | Trace.Event.Malformed | Trace.Event.No_route | Trace.Event.Ttl_expired
  | Trace.Event.No_proto | Trace.Event.Not_forwarding | Trace.Event.Df_needed
  | Trace.Event.Unroutable_icmp | Trace.Event.Reassembly_timeout ->
      invalid_arg "Netsim.drop: not a link-layer drop reason");
  if Trace.want Trace.Cls.link then
    Trace.emit (Trace.Event.Link_drop { link = l.id; dir; len; reason })

(* Transmission time for [len] bytes on the link, at least 1 us. *)
let tx_time prof len =
  let bits = len * 8 in
  let us = bits * 1_000_000 / prof.bandwidth_bps in
  if us < 1 then 1 else us

let deliver t l dir_idx frame =
  let dst, dst_iface = if dir_idx = 0 then l.b else l.a in
  let dir = l.dirs.(dir_idx) in
  let n = node t dst in
  if n.node_up then begin
    dir.delivered_frames <- dir.delivered_frames + 1;
    if Trace.want Trace.Cls.link then
      Trace.emit
        (Trace.Event.Link_deliver
           { link = l.id; dir = dir_idx; len = Bytes.length frame });
    match n.handler with
    | Some h -> h ~iface:dst_iface frame
    | None -> (
        match t.default_handler with
        | Some h -> h ~node:dst ~iface:dst_iface frame
        | None -> ())
  end

let rec start_tx t l dir_idx =
  let dir = l.dirs.(dir_idx) in
  let src = if Queue.is_empty dir.queue_hi then dir.queue else dir.queue_hi in
  if (not dir.busy) && (not (Queue.is_empty src)) && l.up then begin
    dir.busy <- true;
    let frame = Queue.peek src in
    let len = Bytes.length frame in
    let epoch = dir.epoch in
    Engine.after t.eng (tx_time l.prof len) (fun () ->
        if dir.epoch = epoch && l.up then begin
          ignore (Queue.pop src);
          dir.busy <- false;
          dir.tx_frames <- dir.tx_frames + 1;
          dir.tx_bytes <- dir.tx_bytes + len;
          if Trace.want Trace.Cls.link then
            Trace.emit
              (Trace.Event.Link_dequeue { link = l.id; dir = dir_idx; len });
          (* The tap sees the sender's wire: everything transmitted,
             including frames the loss draw is about to destroy. *)
          (match l.tap with
          | Some f -> f ~dir:dir_idx frame
          | None -> ());
          if Stdext.Rng.bool l.rng l.prof.loss then
            drop l ~dir:dir_idx ~len Trace.Event.Link_loss
          else begin
            let jitter =
              if l.prof.jitter_us = 0 then 0
              else Stdext.Rng.int l.rng (l.prof.jitter_us + 1)
            in
            Engine.after t.eng (l.prof.delay_us + jitter) (fun () ->
                if dir.epoch = epoch && l.up then deliver t l dir_idx frame)
          end;
          start_tx t l dir_idx
        end)
  end

let send t nid ?(priority = false) ~iface frame =
  let lid, side = iface_entry t nid iface in
  let l = link t lid in
  let dir = l.dirs.(side) in
  let n = node t nid in
  let len = Bytes.length frame in
  let drop reason = drop l ~dir:side ~len reason in
  if (not n.node_up) || not l.up then begin
    drop Trace.Event.Link_down;
    false
  end
  else if len > l.prof.mtu then begin
    drop Trace.Event.Link_mtu;
    false
  end
  else if
    Queue.length dir.queue + Queue.length dir.queue_hi
    >= l.prof.queue_capacity
  then begin
    drop Trace.Event.Queue_full;
    false
  end
  else begin
    Queue.push frame (if priority then dir.queue_hi else dir.queue);
    if Trace.want Trace.Cls.link then
      Trace.emit
        (Trace.Event.Link_enqueue
           { link = lid; dir = side; len; priority });
    start_tx t l side;
    true
  end

let flush_direction dir =
  dir.epoch <- dir.epoch + 1;
  dir.busy <- false;
  Queue.clear dir.queue;
  Queue.clear dir.queue_hi

let set_link_up t lid up =
  let l = link t lid in
  if l.up <> up then begin
    l.up <- up;
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_link { link = lid; up });
    if not up then Array.iter flush_direction l.dirs
    else
      (* Restart transmitters in case something was queued while down
         (cannot happen today, but keeps the invariant local). *)
      Array.iteri (fun i _ -> start_tx t l i) l.dirs
  end

let link_is_up t lid = (link t lid).up

let set_node_up t nid up =
  let n = node t nid in
  if n.node_up <> up then begin
    n.node_up <- up;
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_node { node = nid; up })
  end

let node_is_up t nid = (node t nid).node_up

let dir_stats d =
  {
    tx_frames = d.tx_frames;
    tx_bytes = d.tx_bytes;
    delivered_frames = d.delivered_frames;
    drops_queue = d.drops_queue;
    drops_loss = d.drops_loss;
    drops_down = d.drops_down;
    drops_mtu = d.drops_mtu;
  }

let link_stats t lid =
  let l = link t lid in
  add_stats (dir_stats l.dirs.(0)) (dir_stats l.dirs.(1))

let total_stats t =
  let acc = ref zero_stats in
  for i = 0 to t.n_links - 1 do
    acc := add_stats !acc (link_stats t i)
  done;
  !acc

let set_link_tap t lid tap = (link t lid).tap <- tap

let stats_items (s : link_stats) =
  [ ("tx_frames", Trace.Metrics.Int s.tx_frames);
    ("tx_bytes", Trace.Metrics.Int s.tx_bytes);
    ("delivered_frames", Trace.Metrics.Int s.delivered_frames);
    ("drops_queue", Trace.Metrics.Int s.drops_queue);
    ("drops_loss", Trace.Metrics.Int s.drops_loss);
    ("drops_down", Trace.Metrics.Int s.drops_down);
    ("drops_mtu", Trace.Metrics.Int s.drops_mtu) ]

let link_metrics_items t lid () = stats_items (link_stats t lid)
let total_metrics_items t () = stats_items (total_stats t)
