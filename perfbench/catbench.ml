(* One benchmark trial of the catenet simulator.

   Builds one workload's world from a seed, runs it to completion, checks
   its outputs and prints one JSON document of raw counts and host-time
   readings on stdout.  A trial is one process: perfbench/run.py starts a
   fresh one for every trial, so no measured run inherits another run's
   heap, and turns the raw figures into the named metrics.  Untraced
   trials time a fixed probe between slices, so that run.py can scale
   each slice's time to the speed of an idle host (see [Probe]).

   Every layer is measured from outside, through its public functions:
   with [--trace 1] each stack's netsim handler is re-installed as a
   closure that calls the same [Ip.Stack.receive] that [Stack.create]
   installs, between clock and [Gc.minor_words] reads, and the
   benchmark's own [Hostpool.send*], [Tcp.send] and [Engine.step] run
   loop are wrapped the same way.  Nothing in lib/ knows it is timed.

   Usage: catbench.exe --workload NAME --seed N --trace 0|1 [--spans FILE] *)

open Catenet
module Json = Trace.Json
module Pattern = Apps.Pattern

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Process CPU time (perfbench/cpuclock.c): the host time the metrics
   report, since it leaves out the gaps in which a shared host runs
   something else.  A system call, so spans use [now_ns] instead. *)
external cpu_ns : unit -> (int[@untagged])
  = "catbench_cpu_ns_byte" "catbench_cpu_ns"
[@@noalloc]

(* [Gc.minor_words] returns an unboxed float: reading it allocates
   nothing, so a span's word count is the wrapped call's alone. *)
let minor_words () = int_of_float (Gc.minor_words ())

(* Simulated time per measured slice of the untraced run. *)
let slice_us = 1_000

let traced = ref false

(* --- spans ---------------------------------------------------------------- *)

(* Spans live off-heap in one growable int bigarray, five ints each:
   kind, parent span index (-1 = none), start ns, end ns, minor words.
   Spans nest two deep: an [Engine.step] batch is the parent of every
   wrapped call made by the events it ran.  Self time is computed from
   them once the run is over, and the table is written out on request. *)
module Span = struct
  let step = 0
  let gw_rx = 1
  let acct_rx = 2
  let host_rx = 3
  let pool_send = 4
  let tcp_send = 5

  let names =
    [| "engine.step"; "ip.gw_receive"; "ip.acct_gw_receive";
       "ip.host_receive"; "hostpool.send"; "tcp.send" |]

  let width = 5

  (* [Engine.step] calls per parent span: one span per event would cost
     more than most events. *)
  let steps_per_batch = 256

  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let make n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  (* Empty until a traced run's set-up grows it: the GC counts a
     bigarray's size as pressure, which an untraced run must not feel. *)
  let buf = ref (make 0)
  let count = ref 0
  let parent = ref (-1)

  let grow () =
    let old = !buf in
    let dim = Bigarray.Array1.dim old in
    let b = make (max (width * (1 lsl 20)) (2 * dim)) in
    Bigarray.Array1.blit old (Bigarray.Array1.sub b 0 dim);
    buf := b

  let get i f = Bigarray.Array1.unsafe_get !buf ((i * width) + f)

  (* Claim the next span before reading the clock, so a growth is
     billed to the enclosing batch rather than to the wrapped call. *)
  let open_ kind =
    let i = !count in
    if (i + 1) * width > Bigarray.Array1.dim !buf then grow ();
    count := i + 1;
    let b = !buf in
    Bigarray.Array1.unsafe_set b (i * width) kind;
    Bigarray.Array1.unsafe_set b ((i * width) + 1) !parent;
    i

  let close i ~t0 ~t1 ~words =
    let b = !buf in
    Bigarray.Array1.unsafe_set b ((i * width) + 2) t0;
    Bigarray.Array1.unsafe_set b ((i * width) + 3) t1;
    Bigarray.Array1.unsafe_set b ((i * width) + 4) words

  (* Header line, then [count * width] little-endian int64s. *)
  let write path =
    let oc = open_out_bin path in
    Printf.fprintf oc "catbench-spans v1 fields=kind,parent,start_ns,end_ns,minor_words kinds=%s count=%d\n"
      (String.concat "," (Array.to_list names))
      !count;
    let chunk = Bytes.create (8 * width) in
    for i = 0 to !count - 1 do
      for f = 0 to width - 1 do
        Bytes.set_int64_le chunk (8 * f) (Int64.of_int (get i f))
      done;
      output_bytes oc chunk
    done;
    close_out oc
end

(* The traced twins of the calls the benchmark makes into each layer. *)

let wrap_receive net st kind =
  Netsim.set_handler net (Ip.Stack.node_id st) (fun ~iface frame ->
      let i = Span.open_ kind in
      let w0 = minor_words () in
      let t0 = now_ns () in
      Ip.Stack.receive st ~iface frame;
      let t1 = now_ns () in
      Span.close i ~t0 ~t1 ~words:(minor_words () - w0))

let pool_send pool slot ~dst payload =
  if not !traced then Hostpool.send pool slot ~dst payload
  else begin
    let i = Span.open_ Span.pool_send in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let ok = Hostpool.send pool slot ~dst payload in
    let t1 = now_ns () in
    Span.close i ~t0 ~t1 ~words:(minor_words () - w0);
    ok
  end

let pool_send_udp pool slot ~dst ~src_port ~dst_port payload =
  if not !traced then Hostpool.send_udp pool slot ~dst ~src_port ~dst_port payload
  else begin
    let i = Span.open_ Span.pool_send in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let ok = Hostpool.send_udp pool slot ~dst ~src_port ~dst_port payload in
    let t1 = now_ns () in
    Span.close i ~t0 ~t1 ~words:(minor_words () - w0);
    ok
  end

let tcp_send conn data =
  if not !traced then Tcp.send conn data
  else begin
    let i = Span.open_ Span.tcp_send in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let n = Tcp.send conn data in
    let t1 = now_ns () in
    Span.close i ~t0 ~t1 ~words:(minor_words () - w0);
    n
  end

(* --- worlds --------------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  delivered : int;  (** IP datagrams handed to their destination host. *)
  goodput_bytes : int;  (** Application payload delivered intact. *)
  errors : string list;  (** Failed correctness checks. *)
}

type world = {
  eng : Engine.t;
  net : Netsim.t;
  stacks : (Ip.Stack.t * int) array;  (** Every stack, with its span kind. *)
  pool : Hostpool.t option;
  conns : unit -> Tcp.conn list;  (** Every connection, both ends. *)
  acct : Ip.Accounting.t option;
  offered_flows : int;  (** Distinct flows the generator offered. *)
  finished : unit -> bool;  (** All traffic delivered: stop slicing. *)
  delivered : unit -> int;  (** Datagrams delivered so far. *)
  received : unit -> int;  (** Payload bytes received so far. *)
  outcome : unit -> outcome;
}

let topo_cfg =
  { Topo.default_config with
    Topo.core = 8; chords = 4; regions = 100; hosts_per_region = 100 }

let topo_stacks t ~acct_gw =
  Array.append
    (Array.init (Topo.core_size t) (fun i -> (Topo.core_gw t i, Span.gw_rx)))
    (Array.init (Topo.regions t) (fun r ->
         ( Topo.region_gw t r,
           if Some r = acct_gw then Span.acct_rx else Span.gw_rx )))

let pool_outcome pool ~attempted ~payload_size =
  let delivered = Hostpool.rx_total pool in
  {
    attempted;
    failed = attempted - delivered;
    delivered;
    goodput_bytes = delivered * payload_size;
    errors =
      (if Hostpool.rx_stray pool <> 0 then
         [ Printf.sprintf "%d frames reached the wrong pooled host"
             (Hostpool.rx_stray pool) ]
       else []);
  }

(* [forward] and [recorded]: E17's 100x100-region catenet (10^4 pooled
   hosts) carrying 64 cross-region flows of 1400-byte datagrams, one
   injected every 15 us of simulated time round-robin over the flows
   (open loop).  Sender k sits in region [off + k*100/64], its receiver
   half the catenet away; the seed picks [off] and every host index. *)
let forward_datagrams = 300_000
let forward_payload = 1_400
let forward_pace_us = 15
let forward_flows = 64

let build_forward ~seed =
  let t = Topo.build topo_cfg in
  let pool = Topo.pool t in
  let eng = Topo.engine t in
  let rng = Random.State.make [| seed |] in
  let nr = Topo.regions t and nh = Topo.hosts_per_region t in
  let off = Random.State.int rng nr in
  let flows =
    Array.init forward_flows (fun k ->
        let src_r = (off + (k * nr / forward_flows)) mod nr in
        let dst_r = (src_r + (nr / 2)) mod nr in
        let src = Topo.host_slot t ~region:src_r ~index:(Random.State.int rng nh) in
        (src, Topo.host_addr t ~region:dst_r ~index:(Random.State.int rng nh)))
  in
  let payload = Bytes.make forward_payload 'f' in
  let rec send_next i =
    if i < forward_datagrams then begin
      let slot, dst = flows.(i mod forward_flows) in
      ignore (pool_send pool slot ~dst payload);
      Engine.after eng forward_pace_us (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  {
    eng;
    net = Topo.net t;
    stacks = topo_stacks t ~acct_gw:None;
    pool = Some pool;
    conns = (fun () -> []);
    acct = None;
    offered_flows = forward_flows;
    finished = (fun () -> Hostpool.rx_total pool >= forward_datagrams);
    delivered = (fun () -> Hostpool.rx_total pool);
    received = (fun () -> Hostpool.rx_total pool * forward_payload);
    outcome =
      (fun () ->
        pool_outcome pool ~attempted:forward_datagrams
          ~payload_size:forward_payload);
  }

(* [acct_small]: 40-byte UDP datagrams into region 0 of the same catenet,
   one every 2 us (open loop): 100 heavy flows of 1000 datagrams each
   interleaved with 400000 singleton tail flows churned over source
   ports, under E20's 32768x2 top-256 sketch at region 0's gateway. *)
let acct_heavy_flows = 100
let acct_heavy_pkts = 1_000
let acct_tail_flows = 400_000
let acct_payload = 40
let acct_pace_us = 2

let acct_mode = Ip.Accounting.Sketch { width = 32_768; depth = 2; top_k = 256 }

let build_acct ~seed =
  let t = Topo.build topo_cfg in
  let pool = Topo.pool t in
  let eng = Topo.engine t in
  let acct = Ip.Stack.enable_accounting ~mode:acct_mode (Topo.region_gw t 0) in
  let rng = Random.State.make [| seed |] in
  let nr = Topo.regions t and nh = Topo.hosts_per_region t in
  let nsenders = nr - 1 in
  let senders =
    Array.init nsenders (fun k ->
        Topo.host_slot t ~region:(k + 1) ~index:(Random.State.int rng nh))
  in
  let dsts =
    Array.init nsenders (fun _ ->
        Topo.host_addr t ~region:0 ~index:(Random.State.int rng nh))
  in
  let port_off = Random.State.int rng 30_000 in
  let heavy_total = acct_heavy_flows * acct_heavy_pkts in
  let total = heavy_total + acct_tail_flows in
  let heavy_every = total / heavy_total in
  let payload = Bytes.make acct_payload 'a' in
  let heavy_sent = ref 0 and tail_sent = ref 0 in
  let rec send_next i =
    if i < total then begin
      (if i mod heavy_every = 0 && !heavy_sent < heavy_total then begin
         let k = !heavy_sent mod acct_heavy_flows in
         incr heavy_sent;
         ignore
           (pool_send_udp pool senders.(k mod nsenders) ~dst:dsts.(k mod nsenders)
              ~src_port:(40_000 + k) ~dst_port:39_000 payload)
       end
       else begin
         (* Tail flow j is (sender p, port pair from j / nsenders): never
            repeated, and never on a heavy flow's ports. *)
         let j = !tail_sent in
         incr tail_sent;
         let p = j mod nsenders and jj = j / nsenders in
         ignore
           (pool_send_udp pool senders.(p) ~dst:dsts.(p)
              ~src_port:(1 + ((jj + port_off) mod 30_000))
              ~dst_port:(1 + (jj / 30_000))
              payload)
       end);
      Engine.after eng acct_pace_us (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  {
    eng;
    net = Topo.net t;
    stacks = topo_stacks t ~acct_gw:(Some 0);
    pool = Some pool;
    conns = (fun () -> []);
    acct = Some acct;
    offered_flows = acct_heavy_flows + acct_tail_flows;
    finished = (fun () -> Hostpool.rx_total pool >= total);
    delivered = (fun () -> Hostpool.rx_total pool);
    received = (fun () -> Hostpool.rx_total pool * acct_payload);
    outcome = (fun () -> pool_outcome pool ~attempted:total ~payload_size:acct_payload);
  }

(* [tcp_bulk]: 8 concurrent 8 MiB transfers across a two-gateway
   dumbbell whose 100 Mb/s, 5 ms bottleneck has a 128-frame queue; hosts
   hang off 1 Gb/s access links.  Closed loop: TCP's window paces every
   sender.  The seed picks each flow's payload pattern.  The starts are
   fixed, 2.5 ms apart, so every seed runs the same TCP dynamics: when
   the seed staggered them too, losses and timeouts came out differently
   per seed, and with them the number of idle slices (764 to 2563 of
   about 8000) and the slice percentiles (up to 20% apart). *)
let tcp_flows = 8
let tcp_bytes = 8 * 1024 * 1024

(* Sends are whole multiples of the pattern's 256-byte period, so one
   prepared chunk serves every aligned stream offset. *)
let tcp_chunk = 4_096
let tcp_port = 5_001

type receiver = { mutable got : int; mutable fin : bool; check : Pattern.checker }

let build_tcp ~seed =
  let t = Internet.create ~routing:Internet.Static () in
  let g1 = Internet.add_gateway t "g1" and g2 = Internet.add_gateway t "g2" in
  ignore
    (Internet.connect t
       (Netsim.profile "bottleneck" ~bandwidth_bps:100_000_000 ~delay_us:5_000
          ~queue_capacity:128)
       g1.Internet.g_node g2.Internet.g_node);
  let access = Netsim.profile "access" ~bandwidth_bps:1_000_000_000 ~delay_us:50 in
  let host name gw =
    let h = Internet.add_host t name in
    ignore (Internet.connect t access h.Internet.h_node gw.Internet.g_node);
    h
  in
  let senders = Array.init tcp_flows (fun i -> host (Printf.sprintf "s%d" i) g1) in
  let receivers = Array.init tcp_flows (fun i -> host (Printf.sprintf "r%d" i) g2) in
  Internet.start t;
  let eng = Internet.engine t in
  let rng = Random.State.make [| seed |] in
  let conns = ref [] in
  let rx =
    Array.init tcp_flows (fun i ->
        let pseed = Random.State.int rng 256 in
        let start_us = 1 + (i * 2_500) in
        let r = { got = 0; fin = false; check = Pattern.checker ~seed:pseed } in
        ignore
          (Tcp.listen receivers.(i).Internet.h_tcp ~port:tcp_port ~accept:(fun c ->
               conns := c :: !conns;
               Tcp.on_receive c (fun data ->
                   r.got <- r.got + Bytes.length data;
                   ignore (Pattern.check r.check data));
               Tcp.on_peer_fin c (fun () ->
                   r.fin <- true;
                   Tcp.close c)));
        let chunk = Pattern.make ~seed:pseed ~off:0 tcp_chunk in
        let dst = Internet.addr_of t receivers.(i).Internet.h_node in
        Engine.after eng start_us (fun () ->
            let c = Tcp.connect senders.(i).Internet.h_tcp ~dst ~dst_port:tcp_port () in
            conns := c :: !conns;
            let sent = ref 0 in
            (* TCP has no writability callback: top the send buffer up
               every millisecond, as Apps.Bulk does. *)
            let rec pump () =
              let open_ = ref true in
              while !open_ && !sent < tcp_bytes && Tcp.send_space c >= tcp_chunk do
                let data =
                  if !sent land 255 = 0 then chunk
                  else Pattern.make ~seed:pseed ~off:!sent tcp_chunk
                in
                let n = tcp_send c data in
                sent := !sent + n;
                (* 0 accepted with space free: the connection is closing. *)
                open_ := n > 0
              done;
              if !sent >= tcp_bytes then Tcp.close c
              else if !open_ then Engine.after eng 1_000 pump
            in
            Tcp.on_established c pump);
        r)
  in
  let complete r = r.fin && r.got = tcp_bytes && Pattern.ok r.check in
  let stacks =
    Array.concat
      [ [| (g1.Internet.g_ip, Span.gw_rx); (g2.Internet.g_ip, Span.gw_rx) |];
        Array.map (fun h -> (h.Internet.h_ip, Span.host_rx)) senders;
        Array.map (fun h -> (h.Internet.h_ip, Span.host_rx)) receivers ]
  in
  (* Segments received at the endpoint stacks. *)
  let delivered () =
    Array.fold_left
      (fun n (st, k) ->
        if k = Span.host_rx then n + (Ip.Stack.counters st).Ip.Stack.delivered
        else n)
      0 stacks
  in
  {
    eng;
    net = Internet.net t;
    stacks;
    pool = None;
    conns = (fun () -> List.rev !conns);
    acct = None;
    offered_flows = tcp_flows;
    finished = (fun () -> Array.for_all complete rx);
    delivered;
    received = (fun () -> Array.fold_left (fun n r -> n + r.got) 0 rx);
    outcome =
      (fun () ->
        let done_ = Array.fold_left (fun n r -> if complete r then n + 1 else n) 0 rx in
        {
          attempted = tcp_flows;
          failed = tcp_flows - done_;
          delivered = delivered ();
          goodput_bytes =
            Array.fold_left (fun n r -> if Pattern.ok r.check then n + r.got else n) 0 rx;
          errors =
            List.concat
              (Array.to_list
                 (Array.mapi
                    (fun i r ->
                      if Pattern.ok r.check then []
                      else [ Printf.sprintf "transfer %d: payload bytes corrupted" i ])
                    rx));
        });
  }

let build ~workload ~seed =
  match workload with
  | "forward" -> build_forward ~seed
  | "recorded" ->
      let w = build_forward ~seed in
      Trace.enable ~capacity:65_536 ~mask:Trace.Cls.all ();
      w
  | "acct_small" -> build_acct ~seed
  | "tcp_bulk" -> build_tcp ~seed
  | other -> invalid_arg ("unknown workload " ^ other)

(* --- host-speed probe ----------------------------------------------------- *)

(* A fixed piece of work, timed between slices, that samples how fast the
   host runs the simulator at that moment.  Other tenants of a shared host
   slow the simulator by up to 3x, in stretches from a fraction of a
   second to minutes.  They hardly slow arithmetic; they slow caches and
   memory.  So the probe does what the simulator does most: it allocates
   short-lived blocks on the simulator's own minor heap.  Of the kernels
   tried against the four workloads (arithmetic, streaming writes, a
   16 MiB pointer chase, random block copies and this one), this one's
   slowdowns tracked the simulator's best.  A probe that a minor
   collection ran in timed the simulator's garbage too, so its time is
   reported negated and run.py skips it; the probes bring forward 5-10%
   of the collections.  run.py divides each slice's time by the
   probes around it.  The code is the benchmark's, so a change to lib/
   moves the slices, never the probe. *)
module Probe = struct
  let sink = ref 0

  let work () =
    let l = ref [] in
    for i = 1 to 6_000 do
      l := [ i; i ] :: (if i land 15 = 0 then [] else !l)
    done;
    sink := !sink + List.length !l

  (* The minor words the probes allocated, which the run's word count
     leaves out. *)
  let words = ref 0

  (* Host CPU ns of one probe; negated if a minor collection ran in it. *)
  let run () =
    let w0 = minor_words () in
    let g0 = (Gc.quick_stat ()).Gc.minor_collections in
    let t0 = cpu_ns () in
    work ();
    let t = cpu_ns () - t0 in
    let g1 = (Gc.quick_stat ()).Gc.minor_collections in
    words := !words + (minor_words () - w0);
    if g1 > g0 then -t else t
end

(* Slices between two probes: about 3 ms of host time on an idle host,
   and 5-10% of the words the simulator allocates in them. *)
let probe_every = function
  | "forward" -> 16
  | "recorded" -> 8
  | "tcp_bulk" -> 64
  | _ -> 2

(* --- driving -------------------------------------------------------------- *)

(* Untraced: advance the simulation one slice of simulated time per
   [Engine.run ~until] call and keep, for each slice, its host time, the
   datagrams and payload bytes it delivered, and the host time of the
   probe run after it (0 for none); once every datagram is delivered,
   drain the tail (TIME-WAIT, idle timers) unsliced.  A probe runs after
   every [every] slices, and after the last.  The records go off-heap,
   so the words a run reports are the simulator's.  Every trial of a
   seed runs the same slices and probes, so run.py can line them up
   across trials. *)
let slice_fields =
  [ "slices_cpu_ns"; "slices_delivered"; "slices_bytes"; "slices_probe_ns" ]

let slice_width = List.length slice_fields

let run_sliced w ~every rec_ =
  let n = ref 0 in
  let dl = ref (w.delivered ()) and rb = ref (w.received ()) in
  while Engine.pending w.eng > 0 && not (w.finished ()) do
    let t0 = cpu_ns () in
    Engine.run ~until:(Engine.now w.eng + slice_us) w.eng;
    let t1 = cpu_ns () in
    let at = slice_width * !n in
    if at + slice_width > Bigarray.Array1.dim !rec_ then begin
      let b = Span.make (2 * Bigarray.Array1.dim !rec_) in
      Bigarray.Array1.blit !rec_ (Bigarray.Array1.sub b 0 at);
      rec_ := b
    end;
    let d = w.delivered () and r = w.received () in
    Bigarray.Array1.set !rec_ at (t1 - t0);
    Bigarray.Array1.set !rec_ (at + 1) (d - !dl);
    Bigarray.Array1.set !rec_ (at + 2) (r - !rb);
    dl := d;
    rb := r;
    incr n;
    Bigarray.Array1.set !rec_ (at + 3) (if !n mod every = 0 then Probe.run () else 0)
  done;
  if !n mod every <> 0 then
    Bigarray.Array1.set !rec_ ((slice_width * (!n - 1)) + 3) (Probe.run ());
  Engine.run w.eng;
  !n

let slice_lists rec_ n =
  List.init slice_width (fun f ->
      List.init n (fun i -> Bigarray.Array1.get rec_ ((slice_width * i) + f)))

(* Traced: the same events, one [Engine.step] at a time, in spans of
   [Span.steps_per_batch] steps. *)
let run_stepped w =
  let steps = ref 0 and pending_max = ref 0 and live = ref true in
  while !live do
    let i = Span.open_ Span.step in
    Span.parent := i;
    let w0 = minor_words () in
    let t0 = now_ns () in
    let k = ref 0 in
    while !live && !k < Span.steps_per_batch do
      if Engine.step w.eng then begin
        incr k;
        let p = Engine.pending w.eng in
        if p > !pending_max then pending_max := p
      end
      else live := false
    done;
    let t1 = now_ns () in
    Span.close i ~t0 ~t1 ~words:(minor_words () - w0);
    Span.parent := -1;
    steps := !steps + !k
  done;
  (!steps, !pending_max)

(* --- reporting ------------------------------------------------------------ *)

let netsim_drops (s : Netsim.link_stats) =
  s.Netsim.drops_queue + s.Netsim.drops_loss + s.Netsim.drops_down
  + s.Netsim.drops_mtu

let stack_drops (c : Ip.Stack.counters) =
  c.Ip.Stack.dropped_malformed + c.Ip.Stack.dropped_no_route
  + c.Ip.Stack.dropped_ttl + c.Ip.Stack.dropped_no_proto
  + c.Ip.Stack.dropped_not_forwarding + c.Ip.Stack.dropped_df
  + c.Ip.Stack.dropped_unroutable_icmp

let sum_stacks w f =
  Array.fold_left (fun n (st, _) -> n + f (Ip.Stack.counters st)) 0 w.stacks

(* Every datagram originated is delivered or counted as a drop by exactly
   one layer; the run drains the queue, so none is left in flight. *)
let conservation w =
  let sent, delivered, stray =
    match w.pool with
    | Some p -> (Hostpool.tx_total p, Hostpool.rx_total p, Hostpool.rx_stray p)
    | None -> (0, 0, 0)
  in
  let sent = sent + sum_stacks w (fun c -> c.Ip.Stack.sent) in
  let delivered = delivered + sum_stacks w (fun c -> c.Ip.Stack.delivered) in
  let dropped = sum_stacks w stack_drops + netsim_drops (Netsim.total_stats w.net) in
  if sent = delivered + dropped + stray then []
  else
    [ Printf.sprintf
        "conservation: sent %d <> delivered %d + dropped %d + stray %d" sent
        delivered dropped stray ]

let sum_conns w f = List.fold_left (fun n c -> n + f (Tcp.stats c)) 0 (w.conns ())

(* The simulated statistics of the run, in a fixed order: identical across
   repeated runs of one seed and between traced and untraced runs. *)
let digest w =
  let b = Buffer.create 4096 in
  let add n = Buffer.add_string b (string_of_int n); Buffer.add_char b ' ' in
  add (Engine.now w.eng);
  add (Engine.timer_starts w.eng);
  let s = Netsim.total_stats w.net in
  List.iter add
    [ s.Netsim.tx_frames; s.Netsim.tx_bytes; s.Netsim.delivered_frames;
      netsim_drops s; s.Netsim.drops_queue ];
  Array.iter
    (fun (st, _) ->
      let c = Ip.Stack.counters st in
      List.iter add
        [ c.Ip.Stack.sent; c.Ip.Stack.received; c.Ip.Stack.delivered;
          c.Ip.Stack.forwarded; stack_drops c; c.Ip.Stack.icmp_tx;
          c.Ip.Stack.route_cache_hits; c.Ip.Stack.route_cache_misses ])
    w.stacks;
  (match w.pool with
  | Some p -> List.iter add [ Hostpool.tx_total p; Hostpool.rx_total p; Hostpool.rx_stray p ]
  | None -> ());
  List.iter
    (fun c ->
      let s = Tcp.stats c in
      List.iter add
        [ s.Tcp.segs_out; s.Tcp.segs_in; s.Tcp.bytes_out; s.Tcp.bytes_in;
          s.Tcp.retransmits; s.Tcp.rto_fires; s.Tcp.bytes_retransmitted;
          s.Tcp.fast_path_acks; s.Tcp.fast_path_data ])
    (w.conns ());
  (match w.acct with
  | Some a ->
      let u = Ip.Accounting.total a in
      List.iter add
        [ u.Ip.Accounting.packets; u.Ip.Accounting.bytes;
          Ip.Accounting.flow_count a; Ip.Accounting.tracked_count a ];
      List.iter
        (fun (f, (u : Ip.Accounting.usage)) ->
          Buffer.add_string b (Ip.Accounting.flow_to_string f);
          add u.Ip.Accounting.bytes)
        (Ip.Accounting.flows ~limit:16 a)
  | None -> ());
  add (Trace.emitted ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Per-kind span totals: count, ns, words, and for gateway receives the
   99th-percentile duration.  Children's time and words are subtracted
   from their parent batch to leave the engine's self time. *)
let span_summary () =
  let nk = Array.length Span.names in
  let cnt = Array.make nk 0 and ns = Array.make nk 0 and wd = Array.make nk 0 in
  let child_ns = ref 0 and child_words = ref 0 in
  let gw = Array.make (max 1 !Span.count) 0 and ngw = ref 0 in
  for i = 0 to !Span.count - 1 do
    let k = Span.get i 0 and d = Span.get i 3 - Span.get i 2 and words = Span.get i 4 in
    cnt.(k) <- cnt.(k) + 1;
    ns.(k) <- ns.(k) + d;
    wd.(k) <- wd.(k) + words;
    if Span.get i 1 >= 0 then begin
      child_ns := !child_ns + d;
      child_words := !child_words + words
    end;
    if k = Span.gw_rx then begin
      gw.(!ngw) <- d;
      incr ngw
    end
  done;
  let gw = Array.sub gw 0 !ngw in
  Array.sort compare gw;
  let p99 = if !ngw = 0 then 0 else gw.(min (!ngw - 1) (99 * !ngw / 100)) in
  let open Json in
  Obj
    (List.init nk (fun k ->
         ( Span.names.(k),
           Obj [ ("count", Int cnt.(k)); ("ns", Int ns.(k)); ("words", Int wd.(k)) ] ))
    @ [ ("engine.self_ns", Int (ns.(Span.step) - !child_ns));
        ("engine.self_words", Int (wd.(Span.step) - !child_words));
        ("ip.gw_receive_p99_ns", Int p99) ])

let () =
  let workload = ref "" and seed = ref 1 and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME forward|tcp_bulk|acct_small|recorded");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1 traced run");
      ("--spans", Arg.Set_string spans, "FILE write the span table here (traced runs)") ]
    (fun a -> raise (Arg.Bad a))
    "catbench.exe --workload NAME --seed N --trace 0|1 [--spans FILE]";
  let c0 = cpu_ns () and t0 = now_ns () in
  let w = build ~workload:!workload ~seed:!seed in
  if !traced then begin
    Span.grow ();
    Array.iter (fun (st, kind) -> wrap_receive w.net st kind) w.stacks
  end;
  (* The world's construction garbage is collected as part of set-up, not
     billed to the first measured slices. *)
  Gc.full_major ();
  let setup_cpu_ns = cpu_ns () - c0 and setup_ns = now_ns () - t0 in
  let rec_ = ref (Span.make (slice_width * 8_192)) in
  let gc0 = Gc.quick_stat () in
  let w0 = minor_words () and pw0 = !Probe.words in
  let c1 = cpu_ns () and t1 = now_ns () in
  let nslices, stepped =
    if !traced then (0, Some (run_stepped w))
    else (run_sliced w ~every:(probe_every !workload) rec_, None)
  in
  let measure_cpu_ns = cpu_ns () - c1 and measure_ns = now_ns () - t1 in
  let words = minor_words () - w0 - (!Probe.words - pw0) in
  let slices = slice_lists !rec_ nslices in
  (* The probes' own time is not the simulator's. *)
  let measure_cpu_ns =
    measure_cpu_ns - List.fold_left (fun t p -> t + abs p) 0 (List.nth slices 3)
  in
  let gc1 = Gc.quick_stat () in
  let trace_events = Trace.emitted () in
  let recorder_on = Trace.enabled () in
  Trace.disable ();
  let o = w.outcome () in
  let errors = o.errors @ conservation w in
  if !traced && !spans <> "" then Span.write !spans;
  let s = Netsim.total_stats w.net in
  let open Json in
  let base =
    [ ("workload", Str !workload);
      ("seed", Int !seed);
      ("trace", Bool !traced);
      ("ocaml", Str Sys.ocaml_version);
      ("setup_cpu_ns", Int setup_cpu_ns);
      ("measure_cpu_ns", Int measure_cpu_ns);
      ("setup_wall_ns", Int setup_ns);
      ("measure_wall_ns", Int measure_ns);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ("delivered", Int o.delivered);
      ("goodput_bytes", Int o.goodput_bytes);
      ("errors", List (List.map (fun e -> Str e) errors));
      ("digest", Str (digest w));
      ("sim_end_us", Int (Engine.now w.eng));
      ("minor_words", Int words);
      ("promoted_words", Int (int_of_float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)));
      ("minor_collections", Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("major_collections", Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("top_heap_words", Int gc1.Gc.top_heap_words);
      ("frames", Int s.Netsim.tx_frames);
      ("drops_queue", Int s.Netsim.drops_queue);
      ("ip_drops", Int (sum_stacks w stack_drops));
      ("route_cache_hits", Int (sum_stacks w (fun c -> c.Ip.Stack.route_cache_hits)));
      ("route_cache_misses", Int (sum_stacks w (fun c -> c.Ip.Stack.route_cache_misses)));
      ("timer_starts", Int (Engine.timer_starts w.eng));
      ("tcp_segs_in", Int (sum_conns w (fun s -> s.Tcp.segs_in)));
      ("tcp_fast_path", Int (sum_conns w (fun s -> s.Tcp.fast_path_acks + s.Tcp.fast_path_data)));
      ("tcp_bytes_out", Int (sum_conns w (fun s -> s.Tcp.bytes_out)));
      ("tcp_bytes_retransmitted", Int (sum_conns w (fun s -> s.Tcp.bytes_retransmitted)));
      ("tcp_rto_fires", Int (sum_conns w (fun s -> s.Tcp.rto_fires)));
      ("acct_tracked", Int (match w.acct with Some a -> Ip.Accounting.tracked_count a | None -> 0));
      ("acct_flow_estimate", Int (match w.acct with Some a -> Ip.Accounting.flow_count a | None -> 0));
      ("offered_flows", Int w.offered_flows);
      ("trace_events", Int (if recorder_on then trace_events else 0));
      ("probe_every", Int (probe_every !workload));
    ]
    @ List.map2
        (fun name l -> (name, List (List.map (fun n -> Int n) l)))
        slice_fields slices
  in
  let traced_fields =
    match stepped with
    | None -> []
    | Some (steps, pending_max) ->
        [ ("steps", Int steps); ("pending_max", Int pending_max);
          ("spans", span_summary ()) ]
  in
  print_string (Json.to_string (Obj (base @ traced_fields)));
  print_newline ()
