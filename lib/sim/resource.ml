type discipline =
  | Fifo
  | Round_robin of float
  | Processor_sharing

type job = {
  mutable remaining : float;
  amount : float;  (* original service demand, for the telemetry tallies *)
  arrived : float;  (* virtual arrival time *)
  waker : unit Process.waker;
}

(* Processor-sharing jobs are keyed by the virtual time at which their demand
   is met (arrival virtual time + demand); [seq] makes completion order
   deterministic when finish times tie. *)
type ps_job = {
  vfinish : float;
  seq : int;
  ps_amount : float;
  ps_arrived : float;  (* real arrival time, for sojourn telemetry *)
  ps_waker : unit Process.waker;
}

(* The resource's float state: one all-float record, which OCaml stores
   flat, so updating a field writes the float in place instead of
   allocating a box. *)
type clock = {
  (* Processor sharing: the fluid clock jobs are measured against, and the
     instant it was last advanced to. *)
  mutable vtime : float;
  mutable last_update : float;
  mutable busy : float;
  (* Fifo / round-robin: when the slice in progress started ([nan] when the
     server is idle), so busy time can be pro-rated at any read instant. *)
  mutable slice_start : float;
  (* Queueing telemetry: the time-weighted integral of the number of jobs
     present (L), and the instant it was last charged to. *)
  mutable queue_area : float;
  mutable last_area_update : float;
}

type t = {
  eng : Engine.t;
  name : string;
  discipline : discipline;
  clock : clock;
  (* Processor sharing: jobs in simultaneous service, ordered by finish
     virtual time, and the completion event pending for the first of them.
     [on_completion] is that event's action, allocated once. *)
  ps_heap : ps_job Binheap.t;
  mutable ps_seq : int;
  mutable completion : Engine.handle option;
  on_completion : unit -> unit;
  (* Fifo / round-robin: the waiting line and the server state. *)
  queue : job Queue.t;
  mutable serving : bool;
  (* Queueing telemetry: per-job tallies recorded at completion. *)
  mutable arrivals : int;
  mutable completions : int;
  wait : Stat.t;  (* sojourn minus service demand, per completed job *)
  service : Stat.t;  (* service demand per completed job *)
}

let epsilon = 1e-9

(* Jobs present right now, before any lazy state advance: queued plus in
   service. Between two events this count is constant, so charging
   [raw_jobs * elapsed] at every state change keeps the queue-length
   integral exact. *)
let raw_jobs t =
  match t.discipline with
  | Processor_sharing -> Binheap.length t.ps_heap
  | Fifo | Round_robin _ -> Queue.length t.queue + if t.serving then 1 else 0

(* Charge the interval since the last update to the queue-length integral.
   Must run before the job population changes. *)
let advance_area t =
  let c = t.clock in
  let now = Engine.now t.eng in
  let elapsed = now -. c.last_area_update in
  if elapsed > 0. then
    c.queue_area <- c.queue_area +. (float_of_int (raw_jobs t) *. elapsed);
  c.last_area_update <- now

let note_arrival t =
  advance_area t;
  t.arrivals <- t.arrivals + 1

(* Per-job tallies, recorded once at completion. Waiting time is the sojourn
   beyond the job's own service demand — exactly the queueing delay under
   Fifo, and the slowdown from sharing the server under RR/PS. *)
let note_completion_values t ~amount ~arrived =
  advance_area t;
  t.completions <- t.completions + 1;
  let sojourn = Engine.now t.eng -. arrived in
  Stat.record t.service amount;
  Stat.record t.wait (Float.max 0. (sojourn -. amount))

let note_completion t job =
  note_completion_values t ~amount:job.amount ~arrived:job.arrived

(* --- Processor sharing ---------------------------------------------------

   All [n] active jobs progress at rate [1/n]. Rather than walking every job
   on every event (O(n) per event, O(n^2) per busy period), the fluid state
   is a single virtual clock [vtime] advancing at rate [1/n]: a job arriving
   at virtual time [V] with demand [a] finishes when [vtime] reaches
   [V + a], so the next completion is always the minimum finish virtual time
   in a heap, and every arrival/completion costs O(log n). Completion
   instants are identical to the per-job formulation up to float rounding. *)

let ps_advance t =
  let c = t.clock in
  let now = Engine.now t.eng in
  let elapsed = now -. c.last_update in
  let n = Binheap.length t.ps_heap in
  if elapsed > 0. && n > 0 then begin
    c.vtime <- c.vtime +. (elapsed /. float_of_int n);
    c.busy <- c.busy +. elapsed
  end;
  c.last_update <- now

let ps_reschedule t =
  (match t.completion with
  | Some h ->
    Engine.cancel t.eng h;
    t.completion <- None
  | None -> ());
  match Binheap.peek t.ps_heap with
  | None -> ()
  | Some next ->
    let n = float_of_int (Binheap.length t.ps_heap) in
    let delay = (next.vfinish -. t.clock.vtime) *. n in
    let delay = if 0. >= delay then 0. else delay in
    t.completion <- Some (Engine.schedule t.eng ~delay t.on_completion)

let ps_complete t =
  t.completion <- None;
  ps_advance t;
  (* Pop every job whose demand is met at the advanced virtual time and wake
     it; ties complete in arrival order (heap order includes [seq]). A waker
     only schedules the process's resumption, so waking inside the loop
     fires in the same order as waking after it. *)
  let rec drain () =
    match Binheap.peek t.ps_heap with
    | Some j when j.vfinish -. t.clock.vtime <= epsilon ->
      (* Telemetry first: the pending interval in the queue-length integral
         must be charged at the population that held during it, i.e. with
         this job still counted. *)
      note_completion_values t ~amount:j.ps_amount ~arrived:j.ps_arrived;
      ignore (Binheap.pop t.ps_heap);
      j.ps_waker ();
      drain ()
    | Some _ | None -> ()
  in
  drain ();
  ps_reschedule t

let ps_use t amount =
  Process.suspend (fun waker ->
      note_arrival t;
      ps_advance t;
      let job =
        {
          vfinish = t.clock.vtime +. amount;
          seq = t.ps_seq;
          ps_amount = amount;
          ps_arrived = Engine.now t.eng;
          ps_waker = waker;
        }
      in
      t.ps_seq <- t.ps_seq + 1;
      Binheap.push t.ps_heap job;
      ps_reschedule t)

(* --- Fifo ---------------------------------------------------------------- *)

let rec fifo_start_next t =
  match Queue.take_opt t.queue with
  | None ->
    t.serving <- false;
    t.clock.slice_start <- nan
  | Some job ->
    t.serving <- true;
    t.clock.slice_start <- Engine.now t.eng;
    Engine.after t.eng ~delay:job.remaining (fun () ->
        let c = t.clock in
        c.busy <- c.busy +. (Engine.now t.eng -. c.slice_start);
        note_completion t job;
        job.waker ();
        fifo_start_next t)

let fifo_use t amount =
  Process.suspend (fun waker ->
      note_arrival t;
      Queue.add
        { remaining = amount; amount; arrived = Engine.now t.eng; waker }
        t.queue;
      if not t.serving then fifo_start_next t)

(* --- Round robin ---------------------------------------------------------

   The head job receives at most one quantum of service, then yields the
   server and re-enters the back of the line unless finished. This is the
   discipline in the paper's simulation model (1 ms slice). *)

let rec rr_serve_slice t quantum =
  match Queue.take_opt t.queue with
  | None ->
    t.serving <- false;
    t.clock.slice_start <- nan
  | Some job ->
    t.serving <- true;
    t.clock.slice_start <- Engine.now t.eng;
    let slice = Float.min quantum job.remaining in
    Engine.after t.eng ~delay:slice (fun () ->
        let c = t.clock in
        c.busy <- c.busy +. (Engine.now t.eng -. c.slice_start);
        job.remaining <- job.remaining -. slice;
        if job.remaining <= epsilon then begin
          note_completion t job;
          job.waker ()
        end
        else Queue.add job t.queue;
        rr_serve_slice t quantum)

let rr_use t quantum amount =
  Process.suspend (fun waker ->
      note_arrival t;
      Queue.add
        { remaining = amount; amount; arrived = Engine.now t.eng; waker }
        t.queue;
      if not t.serving then rr_serve_slice t quantum)

let create ?(name = "resource") eng ~discipline =
  (match discipline with
  | Round_robin quantum when quantum <= 0. ->
    invalid_arg "Resource.create: round-robin quantum must be positive"
  | Fifo | Round_robin _ | Processor_sharing -> ());
  let now = Engine.now eng in
  let rec t =
    {
      eng;
      name;
      discipline;
      clock =
        {
          vtime = 0.;
          last_update = now;
          busy = 0.;
          slice_start = nan;
          queue_area = 0.;
          last_area_update = now;
        };
      ps_heap =
        Binheap.create
          ~cmp:(fun a b ->
            let c = Float.compare a.vfinish b.vfinish in
            if c <> 0 then c else Int.compare a.seq b.seq)
          ~dummy:
            { vfinish = infinity; seq = -1; ps_amount = 0.; ps_arrived = 0.;
              ps_waker = ignore };
      ps_seq = 0;
      completion = None;
      on_completion = (fun () -> ps_complete t);
      queue = Queue.create ();
      serving = false;
      arrivals = 0;
      completions = 0;
      wait = Stat.create ();
      service = Stat.create ();
    }
  in
  t

(* --- Common --------------------------------------------------------------- *)

let use t amount =
  if not (Float.is_finite amount) || amount < 0. then
    invalid_arg "Resource.use: amount must be finite and non-negative";
  (* Zero-amount jobs still join the discipline: they must wait behind every
     job already in line, not jump the queue by returning immediately. All
     three disciplines complete a [remaining = 0.] job in its arrival-order
     turn without consuming service time. *)
  match t.discipline with
  | Processor_sharing -> ps_use t amount
  | Fifo -> fifo_use t amount
  | Round_robin quantum -> rr_use t quantum amount

let load t =
  match t.discipline with
  | Processor_sharing ->
    (* Exclude jobs whose fluid share has already finished their work but
       whose completion event has not fired yet (the completion is scheduled
       for exactly this instant), so a sampled queue length never overshoots
       the population that is still genuinely in service. *)
    let elapsed = Engine.now t.eng -. t.clock.last_update in
    let n = Binheap.length t.ps_heap in
    if n = 0 then 0
    else begin
      let v_now = t.clock.vtime +. (elapsed /. float_of_int n) in
      Binheap.fold t.ps_heap ~init:0 ~f:(fun acc j ->
          if j.vfinish -. v_now > epsilon then acc + 1 else acc)
    end
  | Fifo | Round_robin _ -> Queue.length t.queue + if t.serving then 1 else 0

(* Service time delivered so far, pro-rated to the current instant: elapsed
   in-service time is charged lazily at read rather than only when the
   completion (Fifo) or slice (RR) event fires, so a mid-run utilization
   sample is never stale. *)
let busy_time t =
  let c = t.clock in
  let now = Engine.now t.eng in
  match t.discipline with
  | Processor_sharing ->
    if Binheap.is_empty t.ps_heap then c.busy
    else c.busy +. (now -. c.last_update)
  | Fifo | Round_robin _ ->
    if t.serving then c.busy +. (now -. c.slice_start) else c.busy

(* --- Telemetry ------------------------------------------------------------- *)

let name t = t.name
let arrivals t = t.arrivals
let completions t = t.completions
let wait_stat t = t.wait
let service_stat t = t.service

let queue_area t =
  let c = t.clock in
  let pending = Engine.now t.eng -. c.last_area_update in
  if pending > 0. then c.queue_area +. (float_of_int (raw_jobs t) *. pending)
  else c.queue_area

let utilization t =
  let now = Engine.now t.eng in
  if now <= 0. then 0. else busy_time t /. now

let mean_queue_length t =
  let now = Engine.now t.eng in
  if now <= 0. then 0. else queue_area t /. now

let throughput t =
  let now = Engine.now t.eng in
  if now <= 0. then 0. else float_of_int t.completions /. now

let littles_law_gap t =
  if t.completions = 0 || Engine.now t.eng <= 0. then None
  else begin
    let l = mean_queue_length t in
    let lam = throughput t in
    let w = (Stat.total t.wait +. Stat.total t.service) /. float_of_int t.completions in
    let lw = lam *. w in
    let scale = Float.max l lw in
    if scale <= 0. then Some 0. else Some (Float.abs (l -. lw) /. scale)
  end
