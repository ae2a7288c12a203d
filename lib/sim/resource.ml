(* Processor-sharing jobs are keyed by the virtual time at which their demand
   is met (arrival virtual time + demand); [seq] makes completion order
   deterministic when finish times tie. *)
type ps_job = {
  vfinish : float;
  seq : int;
  ps_amount : float;
  ps_arrived : float;  (* real arrival time, for sojourn telemetry *)
  ps_k : unit -> unit;  (* the job's continuation *)
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
  (* Queueing telemetry: the time-weighted integral of the number of jobs
     present (L), and the instant it was last charged to. *)
  mutable queue_area : float;
  mutable last_area_update : float;
}

type t = {
  eng : Engine.t;
  name : string;
  clock : clock;
  (* Processor sharing: jobs in simultaneous service, ordered by finish
     virtual time. [on_completion], allocated once, is the action of every
     completion event; each carries the [generation] current when it was
     armed, and only the latest one completes jobs. *)
  ps_heap : ps_job Binheap.t;
  mutable ps_seq : int;
  mutable generation : int;
  on_completion : unit -> unit;
  (* Queueing telemetry: per-job tallies recorded at completion; their
     count is the number of completions. *)
  wait : Stat.t;  (* sojourn minus service demand, per completed job *)
  service : Stat.t;  (* service demand per completed job *)
}

let epsilon = 1e-9

(* Jobs present right now, before any lazy state advance (all of them in
   service). Between two events this count is constant, so charging
   [raw_jobs * elapsed] at every state change keeps the queue-length
   integral exact. *)
let raw_jobs t = Binheap.length t.ps_heap

(* Charge the interval since the last update to the queue-length integral.
   Must run before the job population changes. *)
let advance_area t =
  let c = t.clock in
  let now = Engine.now t.eng in
  let elapsed = now -. c.last_area_update in
  if elapsed > 0. then
    c.queue_area <- c.queue_area +. (float_of_int (raw_jobs t) *. elapsed);
  c.last_area_update <- now

(* Per-job tallies, recorded once at completion. Waiting time is the sojourn
   beyond the job's own service demand: the slowdown from sharing the
   server. *)
let note_completion_values t ~amount ~arrived =
  advance_area t;
  let sojourn = Engine.now t.eng -. arrived in
  Stat.record t.service amount;
  Stat.record t.wait (Float.max 0. (sojourn -. amount))

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

(* Every arrival and completion moves the next completion instant. The
   event armed for the old instant is not cancelled: bumping [generation]
   supersedes it, and it fires as a no-op. *)
let ps_reschedule t =
  t.generation <- t.generation + 1;
  let n = Binheap.length t.ps_heap in
  if n > 0 then begin
    let next = Binheap.top t.ps_heap in
    let delay = (next.vfinish -. t.clock.vtime) *. float_of_int n in
    let delay = if 0. >= delay then 0. else delay in
    Engine.after_arg t.eng ~delay ~arg:t.generation t.on_completion
  end

let ps_complete t =
  ps_advance t;
  (* Pop every job whose demand is met at the advanced virtual time and
     schedule its continuation; ties complete in arrival order (heap order
     includes [seq]; the empty heap's top, its dummy, never finishes).
     Scheduling inside the loop fires in the same order as scheduling after
     it. *)
  let rec drain () =
    let j = Binheap.top t.ps_heap in
    if j.vfinish -. t.clock.vtime <= epsilon then begin
      (* Telemetry first: the pending interval in the queue-length integral
         must be charged at the population that held during it, i.e. with
         this job still counted. *)
      note_completion_values t ~amount:j.ps_amount ~arrived:j.ps_arrived;
      ignore (Binheap.pop t.ps_heap);
      Engine.after t.eng ~delay:0. j.ps_k;
      drain ()
    end
  in
  drain ();
  ps_reschedule t

let ps_use t amount k =
  advance_area t;
  ps_advance t;
  let job =
    {
      vfinish = t.clock.vtime +. amount;
      seq = t.ps_seq;
      ps_amount = amount;
      ps_arrived = Engine.now t.eng;
      ps_k = k;
    }
  in
  t.ps_seq <- t.ps_seq + 1;
  Binheap.push t.ps_heap job;
  ps_reschedule t

let create ?(name = "resource") eng =
  let now = Engine.now eng in
  let rec t =
    {
      eng;
      name;
      clock =
        {
          vtime = 0.;
          last_update = now;
          busy = 0.;
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
              ps_k = ignore };
      ps_seq = 0;
      generation = 0;
      on_completion =
        (fun () -> if Engine.arg eng = t.generation then ps_complete t);
      wait = Stat.create ();
      service = Stat.create ();
    }
  in
  t

let use t amount k =
  if not (Float.is_finite amount) || amount < 0. then
    invalid_arg "Resource.use: amount must be finite and non-negative";
  (* A zero-amount job still joins the server: its finish virtual time is
     the current one, so its completion event fires at this instant, after
     the events already queued for it, and moves no other job's finish. *)
  ps_use t amount k

let load t =
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

(* Service time delivered so far, pro-rated to the current instant: elapsed
   in-service time is charged lazily at read rather than only when a
   completion event fires, so a mid-run utilization sample is never
   stale. *)
let busy_time t =
  let c = t.clock in
  let now = Engine.now t.eng in
  if Binheap.is_empty t.ps_heap then c.busy
  else c.busy +. (now -. c.last_update)

(* --- Telemetry ------------------------------------------------------------- *)

let name t = t.name
let completions t = Stat.count t.service

(* Every arrival has completed or is still in the heap. *)
let arrivals t = completions t + raw_jobs t

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
  if now <= 0. then 0. else float_of_int (completions t) /. now

let littles_law_gap t =
  let completions = completions t in
  if completions = 0 || Engine.now t.eng <= 0. then None
  else begin
    let l = mean_queue_length t in
    let lam = throughput t in
    let w = (Stat.total t.wait +. Stat.total t.service) /. float_of_int completions in
    let lw = lam *. w in
    let scale = Float.max l lw in
    if scale <= 0. then Some 0. else Some (Float.abs (l -. lw) /. scale)
  end
