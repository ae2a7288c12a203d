(** The simulated lazy-master replicated system of §5.

    Drives the {e real} protocol components — the {!Lsr_core.Replica_set}
    core the embedded system shares, each site backed by a live
    {!Lsr_storage.Mvcc} instance — from virtual time: every site is a shared
    {!Lsr_sim.Resource} (the paper's round-robin server, modelled as
    processor sharing), clients think, start sessions and submit
    transactions per {!Lsr_workload.Params}, the propagator is a
    10-second-cycle log sniffer, and each secondary runs one refresher plus
    concurrent applicators: the embedded system's {!Lsr_core.Scheduler},
    timed by the service, delay or tick it models. In the paper's CSIM
    model each of these is a process; here none is a fiber. Every wait is
    a continuation: a transaction's goes to {!Lsr_sim.Resource.use} as one
    job for all its operations (as exact under processor sharing as one per
    operation), a refresh commit parks one in a {!Lsr_sim.Seqcond}
    threshold queue, and the periodic parts are {!Lsr_sim.Engine.after}
    timer chains. A blocked
    read is a row of its site's columns (its session's label, its fence
    and the floor that resolved to at arrival, its size, its key stream's
    8 bytes in a bank, its arrival time and its continuation) and waits in
    the site's queue under its row's index, which the release hands to the
    site's one wake action. It holds its position in its random stream,
    not its operations: it draws its keys when it runs
    ({!Lsr_workload.Txn_gen.draw}).

    Because the data operations really execute, a run both measures
    performance and (optionally) records a {!Lsr_core.History} that
    {!Lsr_core.Watchdog.replay} validates afterwards — the simulator cannot
    quietly violate the guarantees it is measuring. *)

open Lsr_core
open Lsr_workload

(** Arrival process for the open-loop client model: [Poisson] at the matched
    offered rate, or [Mmpp b] — a two-state Markov-modulated Poisson process
    with burstiness ratio [b] = high rate / low rate (clamped to [>= 1]) and
    the same long-run mean rate. *)
type arrival = Poisson | Mmpp of float

type client_mode =
  | Closed_loop
      (** the paper's model: [Params.clients_per_secondary] clients per
          site, each thinking between transactions; a thinking client is
          one pending timer event *)
  | Open_loop of { clients : int; arrival : arrival; session_pool : int }
      (** aggregated model for very large populations: one seeded arrival
          chain per site generates the stream a population of [clients]
          closed-loop clients would offer ({!offered_rate}), each
          transaction starts in a zero-delay event of its own, and session
          labels come from a rotating pool of [session_pool] slots
          ([<= 0] picks [min clients 4096]) *)

(** Which freshness fence (if any) read-only transactions carry; applies
    identically under both client modes (the fence is attached per read in
    the shared transaction body). *)
type fence_policy =
  | No_fence
  | All_reads of Session.fence
      (** every read carries this fence. Draws nothing from the workload
          rng, so [All_reads Session_seq] under [Session.Weak] replays the
          exact random stream of an unfenced [Session.Strong_session] run *)
  | Fence_mix of (float * Session.fence option) list
      (** per-read weighted draw over fence classes ([None] = unfenced
          traffic); weights need not sum to 1, non-positive weights are
          ignored, an all-nonpositive mix degenerates to [No_fence] *)

type config = {
  params : Params.t;
  guarantee : Session.guarantee;
  seed : int;
  record_history : bool;
      (** record every transaction, run the history checks at the end
          (memory-heavy; for validation, not performance sweeps) *)
  watchdog : bool;
      (** attach an online {!Lsr_core.Watchdog} judging the run against
          [guarantee]: the weak-SI read validation, the inversion floors
          for all three session-guarantee levels and the fence audit run
          incrementally as transactions finish, in memory bounded by the
          active visibility window — so the guarantee is verified even
          with [record_history = false] (and on runs too long to record).
          Only violations of [guarantee] are alerts; they land in
          [watchdog_alerts]/[watchdog_verdict] and, as one line, in
          [check_errors]. Inversions at every level are counted in
          [watchdog_verdict]. Attaching the watchdog never changes
          simulation outcomes (it only observes; virtual time never
          advances in its hooks). *)
  serial_refresh : bool;
      (** ablation: the refresher waits for each applicator to commit before
          processing the next record (no concurrent applicators) *)
  ship_aborted : bool;
      (** ablation: the "simple method" of §3.2 — aborted transactions'
          updates are propagated and their execution cost is paid at every
          secondary before being discarded *)
  migrate_prob : float;
      (** probability that a read-only transaction is served by a random
          secondary instead of the client's home site (0 in the paper's
          model). Exercises the strong-session-SI read floor and the PCSI
          comparison. *)
  client_mode : client_mode;
      (** how the client population is modeled; [Closed_loop] (the default)
          reproduces the paper, [Open_loop] scales to millions of modeled
          clients *)
  fence : fence_policy;
      (** freshness fences on read-only transactions ([No_fence] by
          default). A fenced read blocks on the site's threshold queue until
          seq(DBsec) reaches the [max] of its guarantee's and its fence's
          requirement — the refresher wakes it from the commit that
          satisfies it. [Exact] and [Max_age] resolve their threshold once,
          at submission; [Session_seq] is re-evaluated while waiting (the
          session floor can rise under a shared open-loop label), so it
          reduces exactly to the strong-session requirement. With
          [record_history] the fence is recorded per read and audited by
          {!Lsr_core.Watchdog.replay} at the end. *)
  faults : Channel.config option;
      (** when set, each secondary receives propagated records through a
          fault-injection {!Lsr_core.Channel} (loss / duplication / delay /
          bounded reordering with sequence numbers, acks and retransmission)
          ticking once per virtual second, instead of the paper's reliable
          FIFO link; [None] (the paper's model) leaves propagation
          untouched *)
  obs : Lsr_obs.Obs.t;
      (** observability sink: counters and queue-depth gauges from
          propagation and the per-site refresh machinery, the clients'
          response-time and session-wait histograms, and each secondary's
          refresh-lag and read-freshness instruments. Fault-channel counts
          are in [channels], not here. It keeps no per-transaction state.
          The default {!Lsr_obs.Obs.null} records nothing and costs
          nothing; attaching an enabled registry never changes simulation
          outcomes (no instrument feeds back into the run) *)
  flight : Lsr_obs.Flight.t;
      (** flight recorder: a bounded in-memory black box over the unified
          event stream — primary commits (carrying both MVCC txn and history
          ids when a tracking consumer is on, hid = -1 otherwise), every
          propagation/refresh pipeline stage, fault-channel misbehaviour,
          per-read snapshot/fence claims and crash/recovery marks. The first
          watchdog alert (with [watchdog]) or diverging refresh commit
          (Theorem 3.1) triggers its postmortem capture mid-run; a failed
          checker battery (with [record_history]) triggers it at the end;
          otherwise the bundle holds the end-of-run window.
          The bundle lands in [flight_report]. Same rules as [obs]:
          {!Lsr_obs.Flight.null} (the default) costs nothing, and an enabled
          recorder never changes outcomes (virtual-time stamps, no
          feedback). Its memory is O(capacity): when the run ends its clock
          is rebound to the end instant, so a recorder kept after the run
          (as {!Run_report} keeps it) holds nothing of the run. *)
  monitor : Monitor.t;
      (** periodic system monitor: every [Monitor.interval] virtual seconds
          it samples per-resource utilization ρ, time-average queue length L
          and instantaneous depth, per-secondary refresh backlog (update and
          pending queues), primary WAL length and per-site MVCC version
          counts into the monitor's {!Lsr_obs.Timeseries}. Same rules again:
          the default {!Monitor.null} costs nothing and an enabled monitor
          never changes outcomes (the probe only reads state). *)
}

(** [config params guarantee ~seed] with ablations off, closed-loop clients,
    no recording, no fault injection and no observability. *)
val config : Params.t -> Session.guarantee -> seed:int -> config

(** [offered_rate p ~clients] is the per-site transaction arrival rate (per
    virtual second) that [clients] closed-loop clients would offer if they
    never queued: [clients / (think_time + mean_tran_size *
    op_service_time)]. The open-loop model drives its arrival process at
    exactly this rate, so the two models see equal offered load for equal
    [clients]. *)
val offered_rate : Params.t -> clients:int -> float

(** End-of-run queueing telemetry of one {!Lsr_sim.Resource} (the primary
    or one secondary site), read at the instant the run stops — busy time
    and the queue-length integral are pro-rated, so ρ and L are exact even
    with jobs still in service. A job is one transaction: an update attempt
    at the primary, a read or a refresh with writes at a secondary. *)
type resource_report = {
  res_site : string;  (** resource name: ["primary"] or the site name *)
  res_utilization : float;  (** ρ = busy time / elapsed time *)
  res_throughput : float;  (** λ = transactions served / elapsed time *)
  res_arrivals : int;
  res_completions : int;
  res_wait_mean : float;  (** mean time queued before/besides service *)
  res_wait_total : float;
  res_service_mean : float;  (** mean demand per transaction: ops × op time *)
  res_service_total : float;
  res_queue_mean : float;  (** L = time-average number of jobs present *)
  res_littles_gap : float;
      (** relative gap |L − λ·W| / max(L, λ·W) of Little's law, W the mean
          sojourn; small for a converged run, 0 before any completion *)
}

type outcome = {
  throughput_fast : float;
      (** transactions finishing within the response-time cap, per second of
          measured time — the y-axis of Figures 2, 5 and 8 *)
  read_rt_mean : float;  (** mean read-only response time (Figures 3, 6) *)
  update_rt_mean : float;  (** mean update response time (Figures 4, 7) *)
  read_rt_p50 : float;  (** median read-only response time *)
  read_rt_p95 : float;  (** 95th-percentile read-only response time *)
  update_rt_p95 : float;
  reads_completed : int;
  updates_completed : int;
  aborts : int;  (** all update aborts (forced + first-committer-wins) *)
  fcw_aborts : int;
      (** real write-write conflicts at the primary (nonzero under key
          skew); included in [aborts] *)
  blocked_reads : int;  (** read-only transactions that waited on seq(c) *)
  fenced_reads : int;
      (** read-only transactions that carried a freshness fence (whether or
          not they had to wait) *)
  block_wait_mean : float;
  refresh_staleness_mean : float;
      (** seconds between an update's primary commit and its refresh commit *)
  refresh_commits : int;
  wasted_ops : int;  (** update operations executed for aborted transactions *)
  read_age_mean : float;
      (** mean snapshot age over read-only transactions: the virtual-time
          age of the newest primary commit each read's snapshot reflected
          (0 for a read at a fully caught-up site) *)
  read_age_p50 : float;
  read_age_p95 : float;  (** the y-axis of the staleness-vs-load figure *)
  read_age_p99 : float;
  read_missed_mean : float;
      (** mean committed-but-unapplied primary transactions per read *)
  primary_utilization : float;
  secondary_utilization : float;  (** mean over secondaries *)
  check_errors : string list;
      (** the end-of-run verdict ({!Lsr_core.Replica_set.check}): empty
          when the run satisfied its guarantee *)
  check_report : Lsr_core.Watchdog.verdict option;
      (** the verdict of {!Lsr_core.Watchdog.replay} of the recorded history
          behind [check_errors] ([None] when [record_history = false]): its
          inversion counts at every level let callers ask finer questions
          than pass/fail, e.g. which guarantees the history would also have
          satisfied (the planner cross-validation tests do) *)
  channels : Lsr_core.Channel.stats;
      (** the fault channels' counters summed over every secondary
          ({!Lsr_core.Replica_set.channel_stats}; all 0 without [faults]) *)
  sim_events : int;
      (** total simulator events fired during the run — the denominator-free
          work measure behind the perf bench's events/second. Includes every
          scheduled wakeup, so attaching a periodic {!Monitor} raises it
          without changing any simulation outcome. *)
  checker_cpu_s : float;
      (** CPU seconds the end-of-run checker battery took (0 when
          [record_history = false]) *)
  watchdog_verdict : Lsr_core.Watchdog.verdict option;
      (** the online watchdog's final counts: alerts (violations of
          [guarantee]) by kind, and inversions at every level ([None] when
          [watchdog = false]) *)
  watchdog_alerts : Lsr_core.Watchdog.alert list;
      (** the watchdog's retained alert log — the guarantee's violations,
          empty for a run that kept it — sorted by (virtual time, txn id),
          deterministic for a fixed seed *)
  watchdog_peak_state : int;
      (** peak watchdog state size (live versions + unretired commits +
          session floors + outstanding tokens): the memory the online check
          needed, bounded by the active visibility window rather than the
          run length *)
  watchdog_report : Lsr_obs.Json.t option;
      (** {!Lsr_core.Watchdog.report_json} of the attached watchdog —
          verdict counts, state sizes, retirement horizon and the retained
          alert log, keys sorted, deterministic for a fixed seed ([None]
          when [watchdog = false]) *)
  flight_report : Lsr_obs.Json.t option;
      (** the flight recorder's postmortem bundle ({!Lsr_obs.Flight.bundle_json}:
          trigger, event window, per-site visibility horizons, implicated
          ids, full config and seed), keys sorted, byte-stable for a
          fixed seed; [None] when no recorder was attached *)
  flight_trigger : string option;
      (** what tripped the capture — ["watchdog"] (the first online alert,
          a violation of [guarantee]) or ["checker"] (post-hoc battery
          failure); [None] when untriggered, as on every run that kept its
          guarantee (the bundle then holds the end-of-run window), or
          without a recorder *)
  flight_events : int;
      (** events the recorder saw (recorded + overwritten); 0 without one *)
  flight_bytes : int;
      (** approximate memory of the recorder's ring: O(capacity), constant
          in run length *)
  resources : resource_report list;
      (** queueing telemetry per site resource, primary first then
          secondaries in index order — the input of {!Bottleneck} *)
}

(** [run config] executes one independent replication and reduces it. With
    [record_history], every transaction is recorded into [history] (a
    fresh one by default), which a caller that passes it can replay. *)
val run : ?history:History.t -> config -> outcome
