(** A shared processor-sharing server.

    Each site in the simulation model is one such resource ("the server is a
    shared resource with a round-robin queueing scheme having a time slice of
    0.001 seconds", §5). The resource runs processor sharing, the fluid limit
    of that round robin as the slice goes to zero: all [n] jobs present
    progress at once, each at rate [1/n]. Against 20 ms operations the
    paper's 1 ms slice is indistinguishable from it, at a twentieth of the
    events; the round-robin reference server in [test/test_sim.ml] ("rr
    approximates ps") is the evidence for the substitution.

    Every resource also keeps full per-job queueing statistics in the CSIM
    tradition (resource statistics as a first-class simulation primitive):
    arrival and completion counts, waiting-time and service-time tallies, a
    time-weighted queue-length integral and exactly pro-rated busy time —
    all correct at {e any} read instant, not just after a completion event,
    so a periodic monitor can sample them mid-run. The simulator's jobs are
    whole transactions, so these counts and tallies are per transaction. *)

type t

(** [create ?name engine] is a new single-server resource. [name] (default
    ["resource"]) labels the telemetry. *)
val create : ?name:string -> Engine.t -> t

(** [use t amount k] submits a job of [amount] seconds of service and
    returns at once; [k ()] runs when the job completes. It never runs
    inside [use] or inside the event that completes the job: completion
    schedules [k] as a zero-delay event of its own, so a job finishing at
    the same instant as other events runs after those already queued. A
    zero [amount] completes at its arrival instant, after the events
    already queued for that instant, and moves no other job's finish time.
    Each arrival and each completion that leaves jobs in service arms one
    completion event; the one it supersedes still fires, as a no-op that
    {!Engine.events_processed} counts.
    @raise Invalid_argument if [amount] is negative or not finite. *)
val use : t -> float -> (unit -> unit) -> unit

(** Jobs currently in service. Jobs whose fluid share has already exhausted
    their demand but whose completion event has not fired yet (it is
    scheduled for exactly the current instant) are {e not} counted, so a
    sampled queue length never overshoots. *)
val load : t -> int

(** Total service time delivered so far. Elapsed in-service time is charged
    lazily at read, so the value is exact at any instant — utilization
    samples taken between completion events are never stale. *)
val busy_time : t -> float

(** {2 Queueing telemetry}

    Per-job tallies are recorded at job completion; the queue-length
    integral and busy time are pro-rated to the read instant. *)

(** The label given at creation. *)
val name : t -> string

(** Jobs that arrived so far. *)
val arrivals : t -> int

(** Jobs whose service completed so far. *)
val completions : t -> int

(** Waiting time per completed job: sojourn minus the job's own service
    demand, i.e. the slowdown from sharing the server. *)
val wait_stat : t -> Stat.t

(** Service demand per completed job. *)
val service_stat : t -> Stat.t

(** [busy_time t /. now]; 0 before any virtual time has passed. *)
val utilization : t -> float

(** Time-average number of jobs present, L: the time integral of the
    number of jobs present, pro-rated to the read instant, over [now]. *)
val mean_queue_length : t -> float

(** Completions per virtual second, λ. *)
val throughput : t -> float

(** Little's-law self-check: the relative gap [|L - λW| / max L (λW)]
    where W is the mean sojourn (wait + service) over completed jobs.
    In steady state this tends to 0 — the invariant the telemetry must
    satisfy (pinned by a property test under Poisson arrivals).
    [None] before the first completion. *)
val littles_law_gap : t -> float option
