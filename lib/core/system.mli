(** The embedded lazy-master replicated database (Figure 1).

    One primary plus [n] secondaries, the propagator of Algorithm 3.1, the
    refresh machinery of Algorithms 3.2/3.3, and the session manager of §4 —
    all driven deterministically in a single thread. Propagation is {e lazy}:
    updates reach the secondaries only when {!propagate}/{!pump} runs (or
    when a blocked read forces synchronization), so staleness and transaction
    inversions can be provoked and observed deterministically in tests and
    examples. The simulator in [lsr_experiments] wires the same protocol
    components to virtual time instead.

    Clients connect to a secondary and submit transactions; read-only
    transactions run at that secondary, update transactions are forwarded to
    the primary (§3). Every finished transaction is recorded in a
    {!History} for offline checking. The bookkeeping every transaction
    passes through, the secondaries with their fault channels and crash
    state, and the end-of-run verdict ({!check}) are the {!Replica_set} core
    the simulator shares; this module adds how the embedded system drives
    them: lazy propagation on demand, pumping reads, and compaction. *)

open Lsr_storage

type t

(** Raised by {!read} when the read's required freshness threshold is still
    unreachable after the bounded pump-retry loop — e.g. an [Exact] fence
    naming a commit that does not exist yet. [available] is the target
    secondary's [seq(DBsec)] at the last attempt. *)
exception Unsatisfiable_read of {
  secondary : int;
  required : Timestamp.t;
  available : Timestamp.t;
  pumps : int;
}

(** Raised by {!read} when the client's secondary has crashed and not yet
    recovered. *)
exception Secondary_down of { secondary : int }

(** Raised by {!pump} when the attached fault channels are still busy after
    [ticks] ([pump_tick_cap] + 1) refresh rounds — a loss rate so close to 1
    that retransmission cannot get through. *)
exception Pump_stalled of { ticks : int }

(** A client session: a label and the secondary it is connected to. *)
type client

(** [create ~guarantee ~secondaries ()] builds a system with that many
    secondary sites (default 1). [schema] maps table names to secondary
    index declarations applied by every transaction handle (see
    {!Lsr_storage.Table}). [faults = (config, seed)] puts a fault-injection
    {!Channel} between the propagator and every secondary, each with its own
    random stream split from [seed] in site order; omitted, propagation is
    the paper's reliable FIFO channel. With channels, {!propagate} hands
    record batches to them instead of enqueueing directly, each refresh
    pulls one tick's worth of in-order deliveries into the secondary's
    update queue, and {!pump} keeps refreshing until every channel is idle.

    [obs] and [flight] form the system's {!Lsr_obs.Sinks}, handed to the
    propagator, every secondary, every fault channel and the watchdog; the
    disabled defaults cost nothing. [obs] also receives the per-site
    freshness instruments of {!Replica_set}; the history, not the registry,
    counts commits, aborts and reads. [flight] receives
    the compact unified event stream (commits carrying both MVCC and
    history ids, pipeline stages and channel faults, per-read snapshot
    claims, crash/recovery marks), from which {!Lsr_obs.Flight.journey}
    reads one update's causal journey; with [watchdog] also on, the first
    alert triggers the recorder's postmortem capture (see
    {!Lsr_obs.Flight}).

    [watchdog] attaches an online {!Watchdog}: every transaction is checked
    incrementally as it finishes (weak-SI reads, inversion floors, fence
    claims) and each refresh commit advances the watchdog's retirement
    horizon. Alerts are available from {!watchdog} while the system runs —
    before, and independently of, the post-hoc {!check}. *)
val create :
  ?secondaries:int -> ?schema:(string * string list) list ->
  ?faults:Channel.config * int ->
  ?obs:Lsr_obs.Obs.t ->
  ?flight:Lsr_obs.Flight.t ->
  ?watchdog:bool ->
  guarantee:Session.guarantee -> unit -> t

val primary_db : t -> Mvcc.t
val secondaries : t -> int
val secondary : t -> int -> Secondary.t
val secondary_db : t -> int -> Mvcc.t
val sessions : t -> Session.t
val history : t -> History.t

(** The primary's commit clock. The embedded system has no virtual time, so
    its time axis is the {!History} event counter: a [Max_age d] fence means
    "at most [d] history events stale". *)
val commit_clock : t -> Session.clock

(** The online checker attached at {!create} ([None] without
    [~watchdog:true]). *)
val watchdog : t -> Watchdog.t option

(** [connect t label] opens a client session. Clients are assigned to
    secondaries round-robin unless [secondary] is given. A fresh [label]
    starts a fresh session (ordering constraints never span labels). *)
val connect : t -> ?secondary:int -> string -> client

val client_secondary : client -> int

(** [migrate t c i] rebinds the session to secondary [i] (load balancing /
    failover), keeping its label and therefore its ordering constraints.
    Under [Strong_session] a migrated session still never sees snapshots
    move backwards (the manager tracks its read floor); under
    [Prefix_consistent] only its own updates constrain it, so a read after
    migration may observe an older snapshot. *)
val migrate : t -> client -> int -> client

(** {2 Transactions} *)

(** [update t c body] forwards an update transaction to the primary: the
    replica-set core opens it ({!Replica_set.begin_update}), [body] runs
    against the primary copy through the core's recording {!Handle}, and
    the core commits it ({!Replica_set.commit}); [Ok] carries the body's
    value. On commit, the session's [seq(c)] advances to the new primary
    commit timestamp. [force_abort] makes the transaction abort at commit
    (the simulator's [abort_prob]); the caller sees [Error Forced], and the
    abort is recorded. A body that raises aborts the transaction (the abort
    record reaches the primary log), which is not recorded in the history;
    the exception goes on up. The same holds for a raising {!read} body,
    whose transaction ends. *)
val update :
  t -> client -> ?force_abort:bool -> (Handle.t -> 'a) ->
  ('a, Mvcc.abort_reason) result

(** [read t c body] runs a read-only transaction at the client's secondary.
    Under [Strong_session]/[Strong], if the session ordering condition
    [seq(c) <= seq(DBsec)] does not hold, the read {e waits} — which in the
    embedded system means forcing propagation and refresh until the copy
    catches up (equivalent to the client waiting for lazy replication).
    Never waits under [Weak] (without a fence).

    [fence], when given, additionally requires the snapshot to satisfy the
    {!Session.fence}: the effective threshold is the [max] of the guarantee's
    and the fence's. A [Max_age] fence resolves its visibility horizon once,
    when the read is submitted. The fence is recorded in the history so
    {!check}'s replay of it audits the claim after the run.
    @raise Secondary_down when the client's secondary is crashed.
    @raise Unsatisfiable_read when the threshold is still unreachable after
    a bounded number of pump rounds. *)
val read : ?fence:Session.fence -> t -> client -> (Handle.t -> 'a) -> 'a

(** [read_nowait t c body] is [read] but returns [None] instead of waiting
    when the freshness threshold is not met — or when the target secondary
    is crashed (a crashed site cannot serve the read {e now}; it does not
    raise). *)
val read_nowait :
  ?fence:Session.fence -> t -> client -> (Handle.t -> 'a) -> 'a option

(** {2 Replication control (lazy!)}

    Each call fires {!Replica_set} moves in {!Replica_set.enabled}'s order. *)

(** The core, whose moves a caller may fire one by one. *)
val replica_set : t -> Replica_set.t

(** Fire [Poll] and, without fault channels, every [Deliver], so the
    records are in the update queues on return. Returns the number of
    records shipped. *)
val propagate : t -> int

(** [refresh_one t i] fires [Deliver i] once (one fault-channel tick), then
    [Refresh i] before [Commit i] until neither is enabled. Returns refresh
    transactions committed. *)
val refresh_one : t -> int -> int

val refresh_all : t -> int

(** Channel ticks one {!pump} may spend waiting for its channels to
    quiesce. *)
val pump_tick_cap : int

(** [pump t] = [propagate] then [refresh_all], repeated until no move is
    enabled: bring every secondary up to date with the primary.
    @raise Pump_stalled if a channel fails to quiesce within
    {!pump_tick_cap} ticks (saturated loss rate). *)
val pump : t -> unit

(** Reads that had to wait for the session condition so far. *)
val blocked_reads : t -> int

(** [compact t] reclaims storage across the system: the primary log (the
    only one) is truncated below the propagator cursor (nothing reads it
    there: {!recover_secondary} installs a copy); and version chains at the
    primary and at every live secondary are vacuumed down to their latest
    committed version. Returns the number of versions reclaimed.
    Call it after {!pump}: snapshot reconstruction below the current state
    becomes unavailable, so lagging secondaries must have caught up first.

    Its vacuum costs each database the keys written more than once since
    the last compact, not the whole store (see {!Mvcc.vacuum}). *)
val compact : t -> int

(** {2 Failures (§3.4, §4)} *)

(** [crash_secondary t i] fires [Crash i]: the site's queues, refresh state,
    database copy and in-flight messages are lost (§3.4); a crashed site's
    crash does nothing. Reads through clients of a crashed secondary raise
    {!Secondary_down} until recovery. *)
val crash_secondary : t -> int -> unit

(** [recover_secondary t i] fires [Recover i], which polls first so that
    nothing already in the copy is propagated again: a quiesced copy of the
    primary database, with [seq(DBsec)] at the primary's latest commit
    (what §4's dummy transaction would read; none is run), after which the
    site resumes receiving propagated updates.
    @raise Invalid_argument when site [i] is not crashed. *)
val recover_secondary : t -> int -> unit

val is_crashed : t -> int -> bool

(** Fault-channel counters summed over every secondary ({!Channel.zero_stats}
    without [faults]). *)
val channel_stats : t -> Channel.stats

(** {2 Verification} *)

(** Run the end-of-run verdict ({!Replica_set.check}): completeness of
    every secondary (Theorem 3.1), checked at each of its refresh commits,
    final-state equality for recovered ones, weak SI of the recorded history
    (Theorem 3.2), the fence audit, the advertised session guarantee, and
    the attached watchdog's verdict. [Error] carries human-readable
    violations. Call after {!pump} for completeness to be meaningful. *)
val check : t -> (unit, string list) result
