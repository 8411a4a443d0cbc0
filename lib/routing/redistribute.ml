module Prefix = Packet.Addr.Prefix

type t = {
  eng : Engine.t;
  period_us : int;
  metric_cap : int;
  dv : Dv.t;
  ls : Ls.t;
  mutable injected_into_dv : Prefix.t list;
  mutable exchanges : int;
}

let exchanges t = t.exchanges

let round t =
  t.exchanges <- t.exchanges + 1;
  (* LS world -> DV world. *)
  let ls_routes = Ls.routes t.ls in
  let fresh =
    List.map
      (fun (prefix, metric) ->
        Dv.inject t.dv prefix ~metric:(min t.metric_cap (1 + metric));
        prefix)
      ls_routes
  in
  (* Withdraw externals that disappeared from the LS side. *)
  List.iter
    (fun p ->
      if not (List.exists (Prefix.equal p) fresh) then Dv.withdraw t.dv p)
    t.injected_into_dv;
  t.injected_into_dv <- fresh;
  (* DV world -> LS world. *)
  Ls.set_external_prefixes t.ls
    (List.map (fun (prefix, metric) -> (prefix, metric)) (Dv.routes t.dv))

let create ?(period_us = 1_000_000) ?(metric_cap = 8) eng ~dv ~ls =
  let t =
    {
      eng;
      period_us;
      metric_cap;
      dv;
      ls;
      injected_into_dv = [];
      exchanges = 0;
    }
  in
  let rec tick () =
    round t;
    Engine.after eng t.period_us tick
  in
  Engine.after eng period_us tick;
  t
