(* All fields are floats, so OCaml stores the record flat and [record]
   updates it in place without boxing. The count [n] is a float too: it is
   exact up to 2^53 samples, and every use divides by it as a float. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let record t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = int_of_float t.n
let total t = t.mean *. t.n
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)
let min t = if t.n = 0. then None else Some t.min
let max t = if t.n = 0. then None else Some t.max

let clear t =
  t.n <- 0.;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
  end
