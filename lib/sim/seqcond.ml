type waiter = { threshold : int; order : int; waker : unit Process.waker }

let cmp a b =
  match compare a.threshold b.threshold with
  | 0 -> compare a.order b.order
  | c -> c

type t = {
  heap : waiter Binheap.t;
  mutable next_order : int;
  mutable level : int;
}

let dummy = { threshold = max_int; order = -1; waker = ignore }

let create () =
  { heap = Binheap.create ~cmp ~dummy; next_order = 0; level = min_int }

let level t = t.level

let rec await t ~threshold =
  let need = threshold () in
  if need > t.level then begin
    Process.suspend (fun waker ->
        let w = { threshold = need; order = t.next_order; waker } in
        t.next_order <- t.next_order + 1;
        Binheap.push t.heap w);
    await t ~threshold
  end

let advance t v =
  if v > t.level then begin
    t.level <- v;
    let rec drain () =
      match Binheap.peek t.heap with
      | Some w when w.threshold <= t.level ->
        ignore (Binheap.pop t.heap);
        w.waker ();
        drain ()
      | Some _ | None -> ()
    in
    drain ()
  end

let waiting t = Binheap.length t.heap
