(** One run report per harness invocation.

    A report owns the observers of every simulation run it is handed — an
    enabled {!Lsr_obs.Obs} registry, a 1-virtual-second {!Monitor}, the
    online watchdog and a {!Lsr_obs.Flight} recorder — and records each
    run's per-run sections.
    {!to_json} is the one versioned document:

    {v
    {"version": 2,
     "runs": [{"tag", "check_errors", "bottleneck", "channels", "watchdog",
               "flight"}],
     "freshness", "metrics", "timeseries"}
    v}

    - [runs]: one entry per run, in run order. [bottleneck] is
      {!Bottleneck.to_json}; [channels] holds the run's fault-channel
      counts ([Sim_system.outcome]'s [channels], one key per
      {!Lsr_core.Channel.stats} field), [null] for a run without fault
      channels; [watchdog] is the run's [watchdog_report] and [flight] its
      postmortem bundle ([flight_report]), each [null] when that observer
      is off. [lsrepl replay] reads the [flight] section of a one-run
      report;
    - [freshness]: {!Lag_report.to_json} of the registry's per-site
      freshness instruments;
    - [metrics], [timeseries]: the sinks' own [to_json].

    [freshness], [metrics] and [timeseries] span every run. No section grows
    per committed transaction: journeys live only in each run's bounded
    [flight] window. Neither does the report between runs: the registry
    holds only its instruments, the recorder only its ring, and no observer
    keeps a finished run's engine, clients or stores alive.

    Every section is deterministic for a fixed seed, so the document is
    byte-stable. Attaching the observers never changes simulation outcomes
    (the sinks' shared contract). *)

type t

(** Attaches nothing and records nothing: runs go through unobserved. *)
val null : t

(** A recording report with every observer enabled. *)
val create : unit -> t

(** [run t ~tag cfg] runs [cfg] with [t]'s observers attached (the watchdog
    is kept on when [cfg] already asks for it) and records the run under
    [tag]. *)
val run : t -> tag:string -> Sim_system.config -> Sim_system.outcome

(** The report document described above. *)
val to_json : t -> Lsr_obs.Json.t

(** The human summary: the per-site freshness / lag table over every run,
    then the last run's bottleneck report. *)
val summary : t -> string
