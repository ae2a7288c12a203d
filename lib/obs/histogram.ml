(* A positive double's bits, shifted right by 46, are its biased exponent
   times 64 plus its top 6 mantissa bits: a key that grows with the value,
   in 64 linear steps per power of two. Slot 0 is the zero bucket; slot
   [key - lo_key + 1] counts the keys from [lo_key] (2^-40) to [hi_key]
   (just below 2^40). *)
let shift = 46
let lo_key = (1023 - 40) lsl 6
let hi_key = ((1023 + 40) lsl 6) - 1
let slots = hi_key - lo_key + 2

(* [counts] is allocated at the first sample, so an instrument that never
   records (a null one, or an empty run's) costs no array. [sum] is a
   one-slot float array so that adding to it stores unboxed. *)
type t = { mutable counts : int array; mutable n : int; sum : float array }

let create () = { counts = [||]; n = 0; sum = [| 0. |] }

let slot x =
  if not (x > 0.) then 0
  else
    let key =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) shift)
    in
    if key < lo_key then 1 else if key > hi_key then slots - 1
    else key - lo_key + 1

let record t x =
  if t.n = 0 then t.counts <- Array.make slots 0;
  let i = slot x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum.(0) <- t.sum.(0) +. x

let count t = t.n
let sum t = t.sum.(0)

(* The double whose bits are [k lsl s]. *)
let float_of_key k s = Int64.float_of_bits (Int64.shift_left (Int64.of_int k) s)

let quantile t q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q outside [0, 1]";
  if t.n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let rec find i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank then i else find (i + 1) cum
    in
    let i = find 0 0 in
    (* The midpoint sets the mantissa bit just below the bucket's own. *)
    if i = 0 then 0. else float_of_key ((2 * (i - 1 + lo_key)) + 1) (shift - 1)
  end

let upper i = if i = 0 then 0. else float_of_key (i + lo_key) shift

let fold f t init =
  let rec go i acc =
    if i = Array.length t.counts then acc
    else
      let n = t.counts.(i) in
      go (i + 1) (if n = 0 then acc else f (upper i) n acc)
  in
  go 0 init
