module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; mn = infinity; mx = neg_infinity; total = 0.0 }

  (* Welford's online algorithm. *)
  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.mn
  let max t = t.mx
  let total t = t.total
end

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = [||]; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let ncap = if t.n = 0 then 64 else t.n * 2 in
      let nd = Array.make ncap 0.0 in
      Array.blit t.data 0 nd 0 t.n;
      t.data <- nd
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let s = ref 0.0 in
      for i = 0 to t.n - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.n
    end

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort compare a;
    a

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let a = sorted t in
      let rank = p /. 100.0 *. float_of_int (t.n - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      let frac = rank -. floor rank in
      (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
    end

  let median t = percentile t 50.0

  let min t = if t.n = 0 then 0.0 else (sorted t).(0)
  let max t = if t.n = 0 then 0.0 else (sorted t).(t.n - 1)

  let jitter t =
    if t.n < 2 then 0.0
    else begin
      let s = ref 0.0 in
      for i = 1 to t.n - 1 do
        s := !s +. abs_float (t.data.(i) -. t.data.(i - 1))
      done;
      !s /. float_of_int (t.n - 1)
    end
end
