type state = Pending | Fired | Cancelled

type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable state : state;
}

type handle = event

(* Pending events live in two queues. Events scheduled with [delay = 0.]
   (process wakes and spawns, about half of all events in a typical run) go
   into [ring], a FIFO: each is stamped with the current time and the next
   seq, and the clock never runs backwards, so the ring is already sorted by
   (time, seq). Every other event goes into [data], a monomorphic binary heap
   inlined here rather than an instance of the generic {!Binheap}:
   comparisons compile to two float/int tests instead of a closure call.
   The next event to fire is the earlier of the two heads, so the order is
   exactly that of a single heap. Vacated slots in both queues are cleared
   so fired events (and the closures they capture) are collectable. At
   millions of events per run this is the hottest loop in the simulator. *)
type t = {
  mutable now : float;
  mutable seq : int;
  mutable live : int;
  mutable fired : int;
  mutable data : event array;
  mutable size : int;
  mutable ring : event array;  (* capacity a power of two *)
  mutable head : int;
  mutable queued : int;
}

(* Placeholder for empty slots; never compared or fired. *)
let dummy = { time = neg_infinity; seq = -1; action = ignore; state = Cancelled }

let create () =
  {
    now = 0.;
    seq = 0;
    live = 0;
    fired = 0;
    data = [||];
    size = 0;
    ring = Array.make 64 dummy;
    head = 0;
    queued = 0;
  }

let now t = t.now
let events_processed t = t.fired

(* [a] fires strictly before [b]: earlier time, FIFO on ties. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let sift_up t i =
  let ev = t.data.(i) in
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before ev t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    t.data.(!i) <- t.data.(parent);
    i := parent
  done;
  t.data.(!i) <- ev

let sift_down t i =
  let ev = t.data.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    if left >= t.size then continue := false
    else begin
      let child =
        if right < t.size && before t.data.(right) t.data.(left) then right
        else left
      in
      if before t.data.(child) ev then begin
        t.data.(!i) <- t.data.(child);
        i := child
      end
      else continue := false
    end
  done;
  t.data.(!i) <- ev

let push t ev =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh = Array.make (max 64 (2 * capacity)) dummy in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end;
  t.data.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- dummy;
    sift_down t 0
  end
  else t.data.(0) <- dummy;
  top

let enqueue t ev =
  let capacity = Array.length t.ring in
  if t.queued = capacity then begin
    let fresh = Array.make (2 * capacity) dummy in
    for i = 0 to t.queued - 1 do
      fresh.(i) <- t.ring.((t.head + i) land (capacity - 1))
    done;
    t.ring <- fresh;
    t.head <- 0
  end;
  t.ring.((t.head + t.queued) land (Array.length t.ring - 1)) <- ev;
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
  let ev = { time = t.now +. delay; seq = t.seq; action; state = Pending } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if delay = 0. then enqueue t ev else push t ev;
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
  t.queued > 0 && (t.size = 0 || not (before t.data.(0) t.ring.(t.head)))

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
      let ev = if from_ring then t.ring.(t.head) else t.data.(0) in
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
  | Some limit -> t.now <- max t.now limit
  | None -> ()

let pending t = t.live
