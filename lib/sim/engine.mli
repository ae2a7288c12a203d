(** Discrete-event simulation core: a virtual clock and an ordered queue of
    pending events.

    The engine replaces the event-scheduling layer of the CSIM package used by
    the paper. Events fire in (time, seq) order: by time, and events
    scheduled for the same instant in scheduling order (FIFO tie-breaking),
    which keeps simulations deterministic for a fixed random seed.

    Pending events with a positive delay wait in a 4-ary min-heap whose
    (time, seq) keys are stored unboxed beside the events, so ordering them
    reads no event record. Events scheduled with [delay = 0.] (a finished
    job's continuation, a released waiter, the start of an {!every} chain)
    skip the heap: they wait in a FIFO lane that is already in (time, seq)
    order, and each step fires the earlier of the lane's head and the
    heap's top. Neither structure changes the order: the firing sequence is
    exactly that of a single (time, seq) priority queue.

    A pending event costs its queue slot and nothing else: three words
    (unboxed time, seq, action) besides the action's own closure. Only
    {!schedule} allocates more, a handle of six words, so schedule with
    {!after} any event that will never be cancelled. A cancelled event
    keeps its slot until it reaches the front of its queue, where it is
    dropped without firing. *)

type t

(** Cancellable reference to an event scheduled with {!schedule}. *)
type handle

val create : unit -> t

(** Current virtual time, in seconds. Starts at 0. Allocates nothing: the
    clock is boxed once per fired event. *)
val now : t -> float

(** [after t ~delay f] arranges for [f] to run at time [now t +. delay],
    like {!schedule} but without a handle, so the event costs its queue
    slot only.
    @raise Invalid_argument if [delay] is negative or not finite. *)
val after : t -> delay:float -> (unit -> unit) -> unit

(** [every t period f] runs [f ()] every [period] seconds, forever: the
    first time [period] after a zero-delay event that this call schedules,
    and each later time [period] after the previous one returns. Each tick
    costs one queue slot; the chain allocates its closures once.
    @raise Invalid_argument if [period] is negative or not finite. *)
val every : t -> float -> (unit -> unit) -> unit

(** [schedule t ~delay f] is [after t ~delay f], and returns a handle that
    can cancel the event.
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [cancel t h] prevents a pending event from firing. Cancelling an event
    that already fired (or was already cancelled) is a no-op. *)
val cancel : t -> handle -> unit

(** [step t] fires the earliest pending event, advancing the clock to its
    time. Returns [false] when no events remain. *)
val step : t -> bool

(** [run ?until t] fires events until the queue drains or the clock would
    pass [until]. When stopped by [until], the clock is set to exactly
    [until] and remaining events stay queued. *)
val run : ?until:float -> t -> unit

(** Number of pending (non-cancelled) events. *)
val pending : t -> int

(** Total events fired since [create] — the simulator's work measure, used
    by the perf bench to report events/second. *)
val events_processed : t -> int
