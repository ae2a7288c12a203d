(** Process-oriented simulation on top of {!Engine}, in the style of CSIM
    processes: an ordinary OCaml function run under an effect handler, in
    which {!delay} advances virtual time.

    The simulator itself runs no process: every wait in it is a
    continuation passed to {!Resource.use}, {!Seqcond.park} or
    {!Engine.after}. This module is kept only for the benchmark's client
    replay, which parks each modeled client as a fiber in {!delay}. *)

(** [spawn engine f] starts [f] as a process in a zero-delay event.
    Exceptions escaping [f] are re-raised out of the engine's event loop. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** [delay seconds] suspends the calling process for [seconds] of virtual
    time: it resumes in an event {!Engine.after} schedules. Must be called
    from within a process. *)
val delay : float -> unit
