(** A threshold queue: continuations waiting for a monotone integer level
    to reach a per-waiter threshold. The simulator's one way to wait for
    another party: a read blocked on its session's [seq(c)], a refresh
    applicator waiting for its predecessor's commit and a refresher waiting
    for the pending queue to drain all park here.

    Waiters are keyed by threshold in a min-heap, so each {!advance} pays
    O(log n) per waiter actually woken and nothing for the rest, where
    re-checking every waiter's predicate on every signal is quadratic when
    thousands of readers block per advance of the level (the
    session-blocking herd at bench scale). A waiter is a parked
    continuation, not a suspended process: it holds its closure and a heap
    slot, and no fiber or stack.

    The threshold is a function: it is re-evaluated after every wake-up and
    the continuation parks again if the (possibly risen) threshold is still
    above the level, because e.g. a pooled session's [seq(c)] can rise while
    one of its reads is already waiting. *)

type t

(** [create engine] starts with the level at [min_int] (everything waits). *)
val create : Engine.t -> t

(** Largest value ever passed to {!advance}. *)
val level : t -> int

(** [park t ~threshold k] runs [k ()] once [threshold () <= level t]: now,
    in the caller, if that holds already; otherwise the caller returns and
    [k] runs as a process ({!Process.start}) in the zero-delay event that
    the satisfying {!advance} schedules, where a suspended process would
    resume. Waiters satisfied by the same {!advance} run in threshold
    order, then registration order (deterministic). *)
val park : t -> threshold:(unit -> int) -> (unit -> unit) -> unit

(** [advance t v] raises the level to [v] (no-op if [v <= level t]) and
    wakes every waiter whose threshold is now reached. *)
val advance : t -> int -> unit

(** Number of parked waiters. *)
val waiting : t -> int
