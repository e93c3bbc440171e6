(* Sample statistics of the benchmark report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples"
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The tail of [n] samples is the highest whole percentile that still
   has at least ten samples beyond it (nearest-rank definition). Below
   20 samples no percentile above the median qualifies, and no tail
   beyond the median is claimed: the tail is the median. *)
let tail_percentile n = if n < 20 then 50 else min 99 (100 * (n - 10) / n)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = max 1 ((p * n + 99) / 100) in
  a.(min n rank - 1)

let tail xs =
  let p = tail_percentile (List.length xs) in
  (p, if p = 50 then median xs else percentile p xs)

(* Samples strictly above the tail value. *)
let beyond xs v = List.length (List.filter (fun x -> x > v) xs)
