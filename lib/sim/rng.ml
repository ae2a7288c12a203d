(* The 64-bit state lives in an 8-byte buffer read and written with
   [Bytes.get_int64_ne]/[set_int64_ne], which the compiler keeps unboxed: a
   [mutable state : int64] field would allocate a fresh boxed int64 at every
   draw. With [mix], [bits64] and [float] inlined into the draws below,
   [float] allocates only its boxed result and [uniform] nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (bits64 t)
let copy = Bytes.copy
let save t bank i = Bytes.blit t 0 bank (8 * i) 8
let load bank i = Bytes.sub bank (8 * i) 8

(* Each draw adds [golden_gamma] to the state, and [Int64.mul] wraps like
   [n] additions would. *)
let skip t n =
  Bytes.set_int64_ne t 0
    (Int64.add (Bytes.get_int64_ne t 0) (Int64.mul (Int64.of_int n) golden_gamma))

let[@inline] float t =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  let span = hi - lo + 1 in
  lo + int_of_float (float t *. float_of_int span)

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t in
  -.mean *. log (1. -. u)

let bernoulli t ~p = float t < p

let zipf t ~n ~s =
  if n < 1 then invalid_arg "Rng.zipf: n < 1";
  if s < 0. then invalid_arg "Rng.zipf: s < 0";
  if s = 0. then uniform t ~lo:1 ~hi:n
  else begin
    let u = float t in
    let nf = float_of_int n in
    let k =
      if Float.abs (s -. 1.) < 1e-9 then
        (* H(k) ~ ln k: invert u = ln k / ln n. *)
        Float.exp (u *. Float.log nf)
      else begin
        (* H_s(k) ~ (k^(1-s) - 1) / (1 - s): invert the normalized CDF. *)
        let e = 1. -. s in
        ((u *. ((nf ** e) -. 1.)) +. 1.) ** (1. /. e)
      end
    in
    max 1 (min n (int_of_float k))
  end
