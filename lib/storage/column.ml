let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1

(* A chunk not allocated yet is [[||]]. *)
type 'a t = { fill : 'a; mutable chunks : 'a array array }

let make fill = { fill; chunks = [||] }

(* A negative [i] shifts to a chunk number past every chunk. *)
let get c i =
  let k = i lsr chunk_bits in
  if k >= Array.length c.chunks || Array.length c.chunks.(k) = 0 then c.fill
  else c.chunks.(k).(i land chunk_mask)

let set c i v =
  let k = i lsr chunk_bits and n = Array.length c.chunks in
  if k >= n then begin
    let chunks = Array.make (max 8 (max (2 * n) (k + 1))) [||] in
    Array.blit c.chunks 0 chunks 0 n;
    c.chunks <- chunks
  end;
  if Array.length c.chunks.(k) = 0 then c.chunks.(k) <- Array.make (chunk_mask + 1) c.fill;
  c.chunks.(k).(i land chunk_mask) <- v
