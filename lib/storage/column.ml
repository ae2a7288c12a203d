let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1

(* Chunk 0 starts at [first_slots] and doubles up to the full chunk size;
   every other chunk is full size, or [[||]] when not allocated yet. *)
let first_slots = 8

type 'a t = { fill : 'a; mutable chunks : 'a array array }

let make fill = { fill; chunks = [||] }

(* A negative [i] shifts to a chunk number past every chunk. *)
let get c i =
  let k = i lsr chunk_bits in
  if k >= Array.length c.chunks then c.fill
  else
    let chunk = c.chunks.(k) and j = i land chunk_mask in
    if j >= Array.length chunk then c.fill else chunk.(j)

let rec room slots j = if slots > j then slots else room (2 * slots) j

let set c i v =
  let k = i lsr chunk_bits and n = Array.length c.chunks in
  if k >= n then begin
    let chunks = Array.make (max 8 (max (2 * n) (k + 1))) [||] in
    Array.blit c.chunks 0 chunks 0 n;
    c.chunks <- chunks
  end;
  let j = i land chunk_mask and chunk = c.chunks.(k) in
  let len = Array.length chunk in
  if j >= len then begin
    let slots = if k = 0 then room (max first_slots (2 * len)) j else chunk_mask + 1 in
    let grown = Array.make slots c.fill in
    Array.blit chunk 0 grown 0 len;
    c.chunks.(k) <- grown
  end;
  c.chunks.(k).(j) <- v
