(* Sender-side SACK scoreboard (RFC 2018 §5): the ranges above snd_una the
   peer has reported holding.  Blocks are kept sorted by left edge and
   disjoint (right edge exclusive); all edges live within one send window
   of snd_una, so the half-space comparisons of [Seq_num] are sound. *)

module Seq = Seq_num

type t = { mutable blocks : (int * int) list }

let create () = { blocks = [] }
let reset t = t.blocks <- []
let blocks t = t.blocks

let sacked_bytes t =
  List.fold_left (fun acc (l, r) -> acc + Seq.diff r l) 0 t.blocks

(* Insert one (l, r) range, merging overlapping or adjacent blocks. *)
let insert t l r =
  let rec ins = function
    | [] -> [ (l, r) ]
    | (bl, br) :: rest when Seq.lt br l -> (bl, br) :: ins rest
    | (bl, br) :: rest when Seq.lt r bl -> (l, r) :: (bl, br) :: rest
    | (bl, br) :: rest ->
        (* Overlap or touch: grow the incoming range and keep merging. *)
        let l = if Seq.lt bl l then bl else l in
        let r = if Seq.gt br r then br else r in
        let rec absorb l r = function
          | (nl, nr) :: rest when Seq.le nl r ->
              absorb l (if Seq.gt nr r then nr else r) rest
          | rest -> (l, r) :: rest
        in
        absorb l r rest
  in
  t.blocks <- ins t.blocks

(* Record the blocks carried by one ACK.  A block is credible only when it
   lies strictly above the cumulative ACK and at or below the highest
   sequence ever sent (RFC 2018 §5.1); anything else is ignored, which
   also shields the scoreboard from forged SACK ranges. *)
let record t ~una ~high sacks =
  List.iter
    (fun (l, r) ->
      if Seq.lt l r && Seq.gt l una && Seq.le r high then insert t l r)
    sacks

(* The cumulative ACK advanced to [seq]: drop everything it covers. *)
let clear_below t seq =
  t.blocks <-
    List.filter_map
      (fun (l, r) ->
        if Seq.le r seq then None
        else if Seq.lt l seq then Some (seq, r)
        else Some (l, r))
      t.blocks

(* If [seq] sits inside a sacked block, the right edge to skip to. *)
let sacked_to t seq =
  let rec find = function
    | [] -> None
    | (l, r) :: _ when Seq.le l seq && Seq.lt seq r -> Some r
    | (l, _) :: _ when Seq.gt l seq -> None
    | _ :: rest -> find rest
  in
  find t.blocks

(* Left edge of the first sacked block strictly after [seq], bounding how
   far a retransmission starting at [seq] may run. *)
let next_left t seq =
  let rec find = function
    | [] -> None
    | (l, _) :: _ when Seq.gt l seq -> Some l
    | _ :: rest -> find rest
  in
  find t.blocks
