type 'a t = {
  cmp : 'a -> 'a -> int;
  (* Fills every slot at or beyond [size], so the heap holds no reference
     to an element it no longer contains. *)
  dummy : 'a;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp ~dummy = { cmp; dummy; data = [||]; size = 0 }
let is_empty h = h.size = 0
let length h = h.size

let grow h =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let fresh = Array.make (max 8 (2 * capacity)) h.dummy in
    Array.blit h.data 0 fresh 0 h.size;
    h.data <- fresh
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let top h = if h.size = 0 then h.dummy else h.data.(0)

let pop h =
  if h.size = 0 then invalid_arg "Binheap.pop: empty heap";
  let top = h.data.(0) in
  h.size <- h.size - 1;
  h.data.(0) <- h.data.(h.size);
  h.data.(h.size) <- h.dummy;
  if h.size > 0 then sift_down h 0;
  top

let fold h ~init ~f =
  let acc = ref init in
  for i = 0 to h.size - 1 do
    acc := f !acc h.data.(i)
  done;
  !acc
