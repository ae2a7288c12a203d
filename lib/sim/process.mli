(** Process-oriented simulation on top of {!Engine}, in the style of CSIM
    processes.

    A process is an ordinary OCaml function executed under an effect handler.
    Inside a process, {!delay} advances virtual time and {!suspend} parks the
    process until some other party calls the waker it was given. {!Resource}
    is built on these two primitives. Every other wait parks a continuation
    instead ({!Seqcond}, or a timer), which {!start} runs as a fresh process.

    Processes are cooperative and single-domain: exactly one process runs at
    any instant, so shared mutable state needs no locking.

    {!start} runs a body as a process inside the event that calls it, so
    an engine event whose action calls [start] is a process timer that
    costs one queue slot plus the action's closure. A caller that keeps
    that closure (a closed-loop client re-arming its timer) allocates no
    closure per start; {!spawn_at} allocates one per call. A parked
    process costs its continuation, and a suspended one also its waker. *)

(** A waker resumes a suspended process with a value. Calling a waker more
    than once is a no-op after the first call. The process resumes at the
    current virtual time, after events already queued for that instant. *)
type 'a waker = 'a -> unit

(** [start engine f x] runs [f x] as a process now, inside the current
    event, and returns when the process first delays, suspends or ends.
    Call it from an engine event's action, not from inside a process.
    Exceptions escaping [f] are re-raised to the caller. *)
val start : Engine.t -> ('a -> unit) -> 'a -> unit

(** [spawn engine f] starts [f] as a process at the current virtual time.
    Exceptions escaping [f] are re-raised out of the engine's event loop. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** [spawn_at engine ~delay f] starts [f] as a process after [delay]
    seconds. The body starts in the event that fires at [now + delay]: the
    event in which a process calling [delay] there instead would resume. So
    a process that ends with [delay d; f ()] may end with
    [spawn_at engine ~delay:d f] instead, with the same firing order, clock
    and event count. *)
val spawn_at : Engine.t -> delay:float -> (unit -> unit) -> unit

(** [delay seconds] suspends the calling process for [seconds] of virtual
    time. Must be called from within a process. *)
val delay : float -> unit

(** [suspend register] parks the calling process. [register] receives the
    waker and typically stores it in a queue; the process resumes when the
    waker is applied. Must be called from within a process. *)
val suspend : ('a waker -> unit) -> 'a

(** [now ()] is the current virtual time of the calling process's engine.
    @raise Failure when called outside a process. *)
val now : unit -> float
