(* A binary min-heap as a structure of arrays: row [i] is a waiter's need,
   registration order (the tie-break), argument and action. Rows past
   [size] hold [ignore], so no released action stays reachable. *)
type t = {
  eng : Engine.t;
  mutable needs : int array;
  mutable orders : int array;
  mutable args : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable next_order : int;
  mutable level : int;
}

let create eng =
  { eng; needs = [||]; orders = [||]; args = [||]; actions = [||]; size = 0;
    next_order = 0; level = min_int }

let level t = t.level
let waiting t = t.size

(* Row [i] is released before row [j]. *)
let before t i j =
  t.needs.(i) < t.needs.(j)
  || (t.needs.(i) = t.needs.(j) && t.orders.(i) < t.orders.(j))

let exchange a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let swap t i j =
  exchange t.needs i j;
  exchange t.orders i j;
  exchange t.args i j;
  exchange t.actions i j

let rec sift_up t i =
  let parent = (i - 1) / 2 in
  if i > 0 && before t i parent then begin
    swap t i parent;
    sift_up t parent
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let child =
    if left + 1 < t.size && before t (left + 1) left then left + 1 else left
  in
  if child < t.size && before t child i then begin
    swap t child i;
    sift_down t child
  end

let grow a fill =
  let b = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let wait t ~need ~arg action =
  let i = t.size in
  if i = Array.length t.needs then begin
    t.needs <- grow t.needs 0;
    t.orders <- grow t.orders 0;
    t.args <- grow t.args 0;
    t.actions <- grow t.actions ignore
  end;
  t.needs.(i) <- need;
  t.orders.(i) <- t.next_order;
  t.args.(i) <- arg;
  t.actions.(i) <- action;
  t.next_order <- t.next_order + 1;
  t.size <- i + 1;
  sift_up t i

(* The closure form: the release event re-runs [park], which re-reads the
   threshold and registers again if it rose. *)
let rec park t ~threshold k =
  let need = threshold () in
  if need <= t.level then k ()
  else wait t ~need ~arg:0 (fun () -> park t ~threshold k)

let advance t v =
  if v > t.level then begin
    t.level <- v;
    while t.size > 0 && t.needs.(0) <= v do
      let arg = t.args.(0) and action = t.actions.(0) in
      t.size <- t.size - 1;
      swap t 0 t.size;
      t.actions.(t.size) <- ignore;
      sift_down t 0;
      Engine.after_arg t.eng ~delay:0. ~arg action
    done
  end
