type t = int

let zero = 0
let compare = Int.compare
let equal = Int.equal
let max = Int.max
let pp = Format.pp_print_int

type source = { mutable last : t }

let source () = { last = zero }

let next s =
  s.last <- s.last + 1;
  s.last

let current s = s.last
