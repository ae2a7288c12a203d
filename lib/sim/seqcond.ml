type waiter = {
  need : int;  (* [threshold ()] when parked *)
  order : int;
  threshold : unit -> int;
  k : unit -> unit;
}

let cmp a b =
  match compare a.need b.need with
  | 0 -> compare a.order b.order
  | c -> c

type t = {
  eng : Engine.t;
  heap : waiter Binheap.t;
  mutable next_order : int;
  mutable level : int;
}

let dummy = { need = max_int; order = -1; threshold = Fun.const 0; k = ignore }

let create eng =
  { eng; heap = Binheap.create ~cmp ~dummy; next_order = 0; level = min_int }

let level t = t.level

let push t need threshold k =
  Binheap.push t.heap { need; order = t.next_order; threshold; k };
  t.next_order <- t.next_order + 1

let park t ~threshold k =
  let need = threshold () in
  if need <= t.level then k () else push t need threshold k

(* The zero-delay event a woken waiter gets: the threshold may have risen
   since it was parked. *)
let resume t w () =
  let need = w.threshold () in
  if need <= t.level then Process.start t.eng w.k ()
  else push t need w.threshold w.k

let advance t v =
  if v > t.level then begin
    t.level <- v;
    let rec drain () =
      match Binheap.peek t.heap with
      | Some w when w.need <= t.level ->
        ignore (Binheap.pop t.heap);
        Engine.after t.eng ~delay:0. (resume t w);
        drain ()
      | Some _ | None -> ()
    in
    drain ()
  end

let waiting t = Binheap.length t.heap
