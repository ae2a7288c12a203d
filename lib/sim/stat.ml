(* All fields are floats, so OCaml stores the record flat and [record]
   updates it in place without boxing. The count [n] is a float too: it is
   exact up to 2^53 samples, and every use divides by it as a float. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0. }

let record t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = int_of_float t.n
let total t = t.mean *. t.n
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)
