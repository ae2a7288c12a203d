(* Order statistics for the benchmark's samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum xs = List.fold_left Float.min infinity xs
let maximum xs = List.fold_left Float.max neg_infinity xs

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so the spreads printed here match
   the ones an outside script computes from the same values. Fewer than two
   values have no spread: both quartiles are the value itself. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Relative spread of a sample: interquartile range over the median with
   four or more values, (max - min) / median below that. *)
let spread xs =
  let med = median xs in
  if med = 0. || List.length xs < 2 then 0.
  else if List.length xs >= 4 then
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs med
  else (maximum xs -. minimum xs) /. Float.abs med

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
