type transfer = {
  mutable received : int;
  mutable intact : bool;
  mutable fin_at_us : int option;
}

type server = { eng : Engine.t; mutable list : transfer list }

let serve tcp ~port ~seed =
  let eng = Ip.Stack.engine (Tcp.stack tcp) in
  let server = { eng; list = [] } in
  let accept conn =
    let tr = { received = 0; intact = true; fin_at_us = None } in
    server.list <- tr :: server.list;
    let chk = Pattern.checker ~seed in
    Tcp.on_receive conn (fun data ->
        tr.received <- tr.received + Bytes.length data;
        tr.intact <- Pattern.check chk data);
    Tcp.on_peer_fin conn (fun () ->
        tr.fin_at_us <- Some (Engine.now eng);
        (* Close our half too. *)
        Tcp.close conn)
  in
  ignore (Tcp.listen tcp ~port ~accept);
  server

let transfers s = s.list

type sender = {
  s_eng : Engine.t;
  s_conn : Tcp.conn;
  s_total : int;
  s_started : int;
  mutable s_sent : int;
  mutable s_done_at : int option;
  mutable s_failed : Tcp.close_reason option;
  s_seed : int;
}

let conn s = s.s_conn
let finished s = s.s_done_at <> None
let failed s = s.s_failed
let completed_at_us s = s.s_done_at

let goodput_bps s =
  match s.s_done_at with
  | None -> None
  | Some at ->
      let dt = Engine.to_sec (at - s.s_started) in
      if dt <= 0.0 then None else Some (float_of_int s.s_total /. dt)

(* Keep the send buffer topped up; TCP exposes no writability callback so
   we poll at a cadence far below segment timescales. *)
let rec pump s =
  if s.s_failed = None && s.s_sent < s.s_total then begin
    let space = Tcp.send_space s.s_conn in
    if space > 0 then begin
      let n = min space (min 16384 (s.s_total - s.s_sent)) in
      let chunk = Pattern.make ~seed:s.s_seed ~off:s.s_sent n in
      let accepted = Tcp.send s.s_conn chunk in
      s.s_sent <- s.s_sent + accepted
    end;
    if s.s_sent >= s.s_total then begin
      Tcp.close s.s_conn;
      watch s
    end
    else Engine.after s.s_eng 2_000 (fun () -> pump s)
  end

(* Completion means our FIN is acknowledged, i.e. every stream byte got
   end-to-end acked — do not wait out TIME-WAIT, which would distort
   goodput numbers by 2·MSL. *)
and watch s =
  if s.s_failed = None && s.s_done_at = None then begin
    match Tcp.state s.s_conn with
    | Tcp.Fin_wait_2 | Tcp.Time_wait | Tcp.Closed ->
        s.s_done_at <- Some (Engine.now s.s_eng)
    | Tcp.Listen | Tcp.Syn_sent | Tcp.Syn_received | Tcp.Established
    | Tcp.Fin_wait_1 | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack ->
        Engine.after s.s_eng 2_000 (fun () -> watch s)
  end

let start tcp ?config ~dst ~dst_port ~seed ~total () =
  let eng = Ip.Stack.engine (Tcp.stack tcp) in
  let c = Tcp.connect tcp ?config ~dst ~dst_port () in
  let s =
    {
      s_eng = eng;
      s_conn = c;
      s_total = total;
      s_started = Engine.now eng;
      s_sent = 0;
      s_done_at = None;
      s_failed = None;
      s_seed = seed;
    }
  in
  Tcp.on_established c (fun () -> pump s);
  Tcp.on_close c (fun reason ->
      match reason with
      | Tcp.Graceful when s.s_sent >= s.s_total ->
          (* Fallback only: [watch] normally recorded the earlier, correct
             FIN-acknowledged instant. *)
          if s.s_done_at = None then s.s_done_at <- Some (Engine.now eng)
      | Tcp.Graceful | Tcp.Reset | Tcp.Timed_out | Tcp.Refused ->
          s.s_failed <- Some reason);
  s
