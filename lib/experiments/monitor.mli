(** Periodic virtual-time system monitor.

    A monitor samples a probe — a pure read of simulation state — every
    [interval] virtual seconds into a deterministic {!Lsr_obs.Timeseries}.
    {!Sim_system} wires the probe: per-resource utilization ρ, time-average
    queue length L and instantaneous depth, per-secondary refresh backlog
    (update and pending queues), primary WAL length and per-site MVCC
    version counts.

    Same contract as the other sinks ({!Lsr_obs.Obs}, {!Lsr_obs.Flight}):
    {!null} costs nothing, and attaching an enabled monitor never changes
    simulation outcomes — the sampling timer only reads state, draws no
    randomness and wakes nothing, so every other event fires at
    exactly the time it would have fired unobserved
    ([test_sim_monitor_does_not_perturb] pins this).

    One monitor may span several runs (a sweep): {!attach} bumps the series'
    run ordinal, keeping samples of successive runs apart even though each
    run restarts virtual time at zero. *)

type t

(** The disabled instance: {!attach} is a no-op. The default everywhere. *)
val null : t

(** [create ?interval ()] is an enabled monitor sampling every [interval]
    (default 1.0) virtual seconds.
    @raise Invalid_argument if [interval] is not positive and finite. *)
val create : ?interval:float -> unit -> t

val enabled : t -> bool

(** The collected samples. *)
val series : t -> Lsr_obs.Timeseries.t

(** [attach t eng ~probe] starts the sampling timer chain on [eng] (first
    sample one interval in). Called by {!Sim_system.run}; a no-op on
    {!null}. *)
val attach : t -> Lsr_sim.Engine.t -> probe:(unit -> (string * float) list) -> unit
