type state = Pending | Fired | Cancelled

(* [time] stays a boxed float, so [t.now <- ev.time] is a pointer copy and
   [now] never allocates. The queues keep their own unboxed copy of the
   (time, seq) key; [seq] lives only there. *)
type event = {
  time : float;
  action : unit -> unit;
  mutable state : state;
}

type handle = event

(* Pending events live in two queues. Events scheduled with [delay = 0.]
   (process wakes and spawns, about half of all events in a typical run) go
   into the ring, a FIFO: each is stamped with the current time and the next
   seq, and the clock never runs backwards, so the ring is already sorted by
   (time, seq). Every other event goes into the heap, a monomorphic 4-ary
   min-heap inlined here rather than an instance of the generic {!Binheap}.
   The next event to fire is the earlier of the two heads, so the order is
   exactly that of a single heap.

   Both queues are structures of arrays: slot [i] holds its key in
   [times.(i)] (a flat float array) and [seqs.(i)], and its event in
   [events.(i)]. A sift compares keys only, so one level of a 4-ary sift
   reads the four sibling keys from one or two cache lines and touches no
   event record; with a 2e5-deep timer heap that is what keeps the hot loop
   out of main memory (LaMarca and Ladner, "The Influence of Caches on the
   Performance of Heaps", JEA 1996). Vacated event slots are cleared so
   fired events (and the closures they capture) are collectable. At
   millions of events per run this is the hottest loop in the simulator. *)
type t = {
  mutable now : float;
  mutable seq : int;
  mutable live : int;
  mutable fired : int;
  (* The heap: slot 0 is the minimum, the children of [i] are
     [4i + 1 .. 4i + 4]. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable events : event array;
  mutable size : int;
  (* The ring: capacity a power of two, [queued] slots from [head] on. *)
  mutable ring_times : float array;
  mutable ring_seqs : int array;
  mutable ring : event array;
  mutable head : int;
  mutable queued : int;
}

(* Placeholder for empty event slots; never fired. *)
let dummy = { time = neg_infinity; action = ignore; state = Cancelled }
let ring_capacity = 64

let create () =
  {
    now = 0.;
    seq = 0;
    live = 0;
    fired = 0;
    times = [||];
    seqs = [||];
    events = [||];
    size = 0;
    ring_times = Array.make ring_capacity 0.;
    ring_seqs = Array.make ring_capacity 0;
    ring = Array.make ring_capacity dummy;
    head = 0;
    queued = 0;
  }

let now t = t.now
let events_processed t = t.fired

(* Key (t1, s1) fires strictly before key (t2, s2): earlier time, FIFO on
   ties. The annotations keep this a pair of unboxed float and int tests;
   without them it would be polymorphic compare. *)
let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

(* Move the key and event of slot [src] into slot [dst]. *)
let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.events dst (Array.unsafe_get t.events src)

let[@inline] place t i seq ev =
  Array.unsafe_set t.times i ev.time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.events i ev

(* Float arguments are passed boxed, so the sifts take the event and read
   its time (boxed already) instead of a float key.

   The hole starts at slot [i] and rises past every parent that fires after
   the key (ev.time, seq). All indices stay below [t.size], so the unsafe
   accesses are in bounds. *)
let sift_up t i seq ev =
  let time = ev.time in
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
  place t !i seq ev

(* The hole starts at slot [i] and sinks below every child that fires
   before the key (ev.time, seq). *)
let sift_down t i seq ev =
  let time = ev.time in
  let size = t.size in
  let i = ref i in
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
  place t !i seq ev

let push t seq ev =
  let capacity = Array.length t.events in
  if t.size = capacity then begin
    let fresh = max 64 (2 * capacity) in
    let grow a fill =
      let b = Array.make fresh fill in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.times <- grow t.times 0.;
    t.seqs <- grow t.seqs 0;
    t.events <- grow t.events dummy
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) seq ev

let pop t =
  let top = t.events.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let ev = Array.unsafe_get t.events last in
    Array.unsafe_set t.events last dummy;
    sift_down t 0 (Array.unsafe_get t.seqs last) ev
  end
  else t.events.(0) <- dummy;
  top

let enqueue t seq ev =
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
    t.ring <- unroll t.ring dummy;
    t.head <- 0
  end;
  let i = (t.head + t.queued) land (Array.length t.ring - 1) in
  t.ring_times.(i) <- ev.time;
  t.ring_seqs.(i) <- seq;
  t.ring.(i) <- ev;
  t.queued <- t.queued + 1

let dequeue t =
  let ev = t.ring.(t.head) in
  t.ring.(t.head) <- dummy;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.queued <- t.queued - 1;
  ev

let schedule t ~delay action =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  let seq = t.seq in
  let ev = { time = t.now +. delay; action; state = Pending } in
  t.seq <- seq + 1;
  t.live <- t.live + 1;
  if delay = 0. then enqueue t seq ev else push t seq ev;
  ev

let cancel t ev =
  match ev.state with
  | Pending ->
    ev.state <- Cancelled;
    t.live <- t.live - 1
  | Fired | Cancelled -> ()

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
let take t ~from_ring = if from_ring then dequeue t else pop t

let fire t ev =
  ev.state <- Fired;
  t.live <- t.live - 1;
  t.now <- ev.time;
  t.fired <- t.fired + 1;
  ev.action ()

let rec step t =
  if is_empty t then false
  else begin
    let ev = take t ~from_ring:(ring_first t) in
    match ev.state with
    | Cancelled | Fired -> step t
    | Pending ->
      fire t ev;
      true
  end

let run ?until t =
  let limit = match until with None -> infinity | Some limit -> limit in
  let rec loop () =
    if not (is_empty t) then begin
      let from_ring = ring_first t in
      let ev = if from_ring then t.ring.(t.head) else t.events.(0) in
      match ev.state with
      | Cancelled | Fired ->
        ignore (take t ~from_ring);
        loop ()
      | Pending ->
        if ev.time <= limit then begin
          ignore (take t ~from_ring);
          fire t ev;
          loop ()
        end
    end
  in
  loop ();
  match until with
  | Some limit -> t.now <- Float.max t.now limit
  | None -> ()

let pending t = t.live
