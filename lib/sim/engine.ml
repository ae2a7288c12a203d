(* A handle remembers its event's (time, seq) key: events fire in key
   order, so the event is still pending exactly when it has not been
   cancelled and its key comes after that of the last event fired. The
   engine itself never reads a handle while the event is pending. *)
type handle = { at : float; id : int; mutable cancelled : bool }

(* Pending events live in two queues. Events scheduled with [delay = 0.]
   (finished jobs' continuations, released waiters and chain starts, about
   half of all events in a typical run) go
   into the ring, a FIFO: each is stamped with the current time and the next
   seq, and the clock never runs backwards, so the ring is already sorted by
   (time, seq). Every other event goes into the heap, a monomorphic 4-ary
   min-heap inlined here rather than an instance of the generic {!Binheap}.
   The next event to fire is the earlier of the two heads, so the order is
   exactly that of a single heap.

   Both queues are structures of arrays, and a pending event is nothing but
   its slot: slot [i] holds its key in [times.(i)] (a flat float array) and
   [seqs.(i)], and its action in [actions.(i)]. There is no per-event
   record and no boxed time; the clock is boxed once, when an event fires.
   A sift compares keys only, so one level of a 4-ary sift reads the four
   sibling keys from one or two cache lines and touches no action; with a
   2e5-deep timer heap that is what keeps the hot loop out of main memory
   (LaMarca and Ladner, "The Influence of Caches on the Performance of
   Heaps", JEA 1996). Vacated action slots are cleared so fired events (and
   the closures they capture) are collectable. At millions of events per
   run this is the hottest loop in the simulator.

   A cancelled event stays in its queue until it reaches the front, where
   it is dropped without firing. Cancelled events come to the front in key
   order, so the engine keeps their handles in a small heap of their own
   and compares each popped seq with the earliest one's: one int test per
   event, and no mark in the queues. *)
type t = {
  mutable now : float;
  mutable seq : int;
  (* The seq of the last event fired; -1 before the first. *)
  mutable last : int;
  mutable fired : int;
  (* The heap: slot 0 is the minimum, the children of [i] are
     [4i + 1 .. 4i + 4]. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  (* The ring: capacity a power of two, [queued] slots from [head] on. *)
  mutable ring_times : float array;
  mutable ring_seqs : int array;
  mutable ring : (unit -> unit) array;
  mutable head : int;
  mutable queued : int;
  (* Cancelled events still queued, and the seq of the earliest of them
     (-1 when there is none). *)
  doomed : handle Binheap.t;
  mutable next_doomed : int;
}

let ring_capacity = 64

(* Key (t1, s1) fires strictly before key (t2, s2): earlier time, FIFO on
   ties. The annotations keep this a pair of unboxed float and int tests;
   without them it would be polymorphic compare. *)
let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let create () =
  {
    now = 0.;
    seq = 0;
    last = -1;
    fired = 0;
    times = [||];
    seqs = [||];
    actions = [||];
    size = 0;
    ring_times = Array.make ring_capacity 0.;
    ring_seqs = Array.make ring_capacity 0;
    ring = Array.make ring_capacity ignore;
    head = 0;
    queued = 0;
    doomed =
      Binheap.create
        ~cmp:(fun a b -> if before a.at a.id b.at b.id then -1 else 1)
        ~dummy:{ at = nan; id = -1; cancelled = true };
    next_doomed = -1;
  }

let now t = t.now
let events_processed t = t.fired
let pending t = t.size + t.queued - Binheap.length t.doomed

(* Move the key and action of slot [src] into slot [dst]. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.actions dst (Array.unsafe_get t.actions src)

(* The entry in slot [i] rises past every parent that fires after it. The
   sifts read their entry's key from its slot, since a float argument
   would be passed boxed. All indices stay below [t.size], so the unsafe
   accesses are in bounds. *)
let sift_up t i =
  let time = Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and action = Array.unsafe_get t.actions i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    if before time seq (Array.unsafe_get t.times parent)
         (Array.unsafe_get t.seqs parent)
    then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.actions !i action

(* The entry in slot [t.size], just past the heap, fills the hole at the
   root and sinks below every child that fires before it. *)
let sift_down t =
  let size = t.size in
  let time = Array.unsafe_get t.times size
  and seq = Array.unsafe_get t.seqs size
  and action = Array.unsafe_get t.actions size in
  Array.unsafe_set t.actions size ignore;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= size then continue := false
    else begin
      (* The earliest of the (up to four) children. *)
      let last = if first + 3 < size then first + 3 else size - 1 in
      let best = ref first in
      let best_time = ref (Array.unsafe_get t.times first) in
      let best_seq = ref (Array.unsafe_get t.seqs first) in
      for c = first + 1 to last do
        let ct = Array.unsafe_get t.times c and cs = Array.unsafe_get t.seqs c in
        if before ct cs !best_time !best_seq then begin
          best := c;
          best_time := ct;
          best_seq := cs
        end
      done;
      if before !best_time !best_seq time seq then begin
        move t ~src:!best ~dst:!i;
        i := !best
      end
      else continue := false
    end
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.actions !i action

let push t seq ~delay action =
  let capacity = Array.length t.actions in
  if t.size = capacity then begin
    let fresh = max 64 (2 * capacity) in
    let grow a fill =
      let b = Array.make fresh fill in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.times <- grow t.times 0.;
    t.seqs <- grow t.seqs 0;
    t.actions <- grow t.actions ignore
  end;
  let i = t.size in
  Array.unsafe_set t.times i (t.now +. delay);
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.actions i action;
  t.size <- i + 1;
  sift_up t i

let pop t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t else t.actions.(0) <- ignore

let enqueue t seq action =
  let capacity = Array.length t.ring in
  if t.queued = capacity then begin
    let fresh = 2 * capacity in
    let unroll a fill =
      let b = Array.make fresh fill in
      for i = 0 to t.queued - 1 do
        b.(i) <- a.((t.head + i) land (capacity - 1))
      done;
      b
    in
    t.ring_times <- unroll t.ring_times 0.;
    t.ring_seqs <- unroll t.ring_seqs 0;
    t.ring <- unroll t.ring ignore;
    t.head <- 0
  end;
  let i = (t.head + t.queued) land (Array.length t.ring - 1) in
  t.ring_times.(i) <- t.now;
  t.ring_seqs.(i) <- seq;
  t.ring.(i) <- action;
  t.queued <- t.queued + 1

let dequeue t =
  t.ring.(t.head) <- ignore;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.queued <- t.queued - 1

let check_delay caller delay =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg (caller ^ ": delay must be finite and non-negative")

let insert t ~delay action =
  let seq = t.seq in
  t.seq <- seq + 1;
  if delay = 0. then enqueue t seq action else push t seq ~delay action

let after t ~delay action =
  check_delay "Engine.after" delay;
  insert t ~delay action

let every t period tick =
  check_delay "Engine.every" period;
  let rec fire () =
    tick ();
    insert t ~delay:period fire
  in
  insert t ~delay:0. (fun () -> insert t ~delay:period fire)

let schedule t ~delay action =
  check_delay "Engine.schedule" delay;
  let h = { at = t.now +. delay; id = t.seq; cancelled = false } in
  insert t ~delay action;
  h

let cancel t h =
  if (not h.cancelled) && before t.now t.last h.at h.id then begin
    h.cancelled <- true;
    Binheap.push t.doomed h;
    match Binheap.peek t.doomed with
    | Some first -> t.next_doomed <- first.id
    | None -> ()
  end

(* Whether the next event to fire is the ring's head rather than the heap's
   top. Call only when some event is queued. *)
let ring_first t =
  t.queued > 0
  && (t.size = 0
     ||
     let h = t.head in
     not
       (before t.times.(0) t.seqs.(0) t.ring_times.(h) t.ring_seqs.(h)))

let is_empty t = t.size = 0 && t.queued = 0

(* The seq of the next event, in the queue [ring_first] chose. *)
let next_seq t ~from_ring =
  if from_ring then Array.unsafe_get t.ring_seqs t.head
  else Array.unsafe_get t.seqs 0

(* Remove the next event, the earliest cancelled one, from its queue
   without firing it. *)
let drop t ~from_ring =
  if from_ring then dequeue t else pop t;
  ignore (Binheap.pop t.doomed);
  t.next_doomed <-
    (match Binheap.peek t.doomed with Some h -> h.id | None -> -1)

(* Remove the next event, [seq], from its queue and fire it. *)
let fire t ~from_ring seq =
  let time = if from_ring then t.ring_times.(t.head) else t.times.(0) in
  let action = if from_ring then t.ring.(t.head) else t.actions.(0) in
  if from_ring then dequeue t else pop t;
  t.now <- time;
  t.last <- seq;
  t.fired <- t.fired + 1;
  action ()

let rec step t =
  if is_empty t then false
  else begin
    let from_ring = ring_first t in
    let seq = next_seq t ~from_ring in
    if seq = t.next_doomed then begin
      drop t ~from_ring;
      step t
    end
    else begin
      fire t ~from_ring seq;
      true
    end
  end

let run ?until t =
  let limit = match until with None -> infinity | Some limit -> limit in
  let rec loop () =
    if not (is_empty t) then begin
      let from_ring = ring_first t in
      let seq = next_seq t ~from_ring in
      if seq = t.next_doomed then begin
        drop t ~from_ring;
        loop ()
      end
      else if
        (if from_ring then t.ring_times.(t.head) else t.times.(0)) <= limit
      then begin
        fire t ~from_ring seq;
        loop ()
      end
    end
  in
  loop ();
  match until with
  | Some limit -> t.now <- Float.max t.now limit
  | None -> ()
