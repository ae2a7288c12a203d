(** A threshold queue: waiters for a monotone integer level to reach a
    per-waiter need. The simulator's one way to wait for another party: a
    read blocked on its session's [seq(c)], a refresh applicator waiting
    for its predecessor's commit and a refresher waiting for the pending
    queue to drain all wait here.

    Waiters are keyed by (need, registration order) in a min-heap, so each
    {!advance} pays O(log n) per waiter actually released and nothing for
    the rest, where re-checking every waiter's predicate on every signal is
    quadratic when thousands of readers block per advance of the level
    (the session-blocking herd at bench scale). A waiter is a row of four
    flat slots (need, order, an int argument and an action, which many
    waiters may share), with no record, closure or fiber of its own. A
    need can rise while its waiter is parked (a pooled session's [seq(c)]
    does), so a released waiter re-reads it and waits again under a new
    registration while it is still above the level. *)

type t

(** [create engine] starts with the level at [min_int] (everything waits). *)
val create : Engine.t -> t

(** Largest value ever passed to {!advance}. *)
val level : t -> int

(** [wait t ~need ~arg action] registers a waiter, even when
    [need <= level t]: the first {!advance} that raises the level to
    [need] or beyond releases it, and [action] runs in a zero-delay
    {!Engine.after_arg} event whose {!Engine.arg} is [arg]. Waiters
    released by one {!advance} run in need order, then registration
    order. *)
val wait : t -> need:int -> arg:int -> (unit -> unit) -> unit

(** [park t ~threshold k] runs [k ()] once [threshold () <= level t]: now,
    in the caller, if that holds already; otherwise it {!wait}s with need
    [threshold ()] and an action that parks again. It allocates that
    closure at each registration; the simulator's blocked reads {!wait}
    with one action per site instead. *)
val park : t -> threshold:(unit -> int) -> (unit -> unit) -> unit

(** [advance t v] raises the level to [v] (no-op if [v <= level t]) and
    releases every waiter whose need is now reached. *)
val advance : t -> int -> unit

(** Number of parked waiters. *)
val waiting : t -> int
