(** The replica-set core shared by the embedded {!System} and the simulator
    ([Lsr_experiments.Sim_system]): the primary and its propagator, the
    session manager, the primary commit clock, the {!History}, the optional
    {!Watchdog} judging the run's guarantee, the observability
    {!Lsr_obs.Sinks}, and the site table — per secondary its current
    replica, its optional fault {!Channel} and whether it is crashed or was
    ever recovered. Drivers keep how transactions execute and wait, and
    pass each transaction through the hooks below, which do its bookkeeping
    once: history ticks and ids, [seq(c)] and read floors, the commit clock,
    read freshness and refresh lag, per-site freshness instruments, flight
    events, watchdog tokens and the history record. {!check} is the one
    end-of-run verdict both drivers report.

    Ordering rules the hooks encode:
    - a history tick and its watchdog hook happen in one hook call, so no
      scheduler yield separates them;
    - the flight recorder notes a commit before the watchdog judges it, so a
      capture that commit triggers contains its witness;
    - commits reach the watchdog in commit-timestamp order, provided the
      driver calls {!finish_update} with no yield after the primary commit.

    With no watchdog, history, registry or flight recorder attached, the
    hooks allocate only the freshness and lag values they hand to the
    driver.

    Read freshness and refresh lag are computed here once per event, on the
    commit clock, and handed to the driver's [on_read] and
    [on_refresh_commit] hooks. They also go to an attached {!Lsr_obs.Obs}
    registry as four instruments per secondary, interned together on the
    site's first sample: histograms [<site>.read_age], [<site>.read_missed] and
    [<site>.refresh_lag], and the gauge [<site>.missed_commits], whose peak
    is the exact maximum of [read_missed] ([Lag_report] reads them). *)

open Lsr_storage

type t

(** [create ~sinks ~record_history ~watchdog ~sites guarantee] is the core
    of a system with [sites] secondaries ["secondary-<i>"]. [now] is the
    simulator's virtual clock: the flight recorder is bound to it and
    starts a new epoch. Without it the time axis is the history event
    counter, so [Max_age] fences, freshness samples and refresh lags count
    history events. [record_history] keeps every finished transaction, in
    [history] (a fresh one by default), and every store's commit list (for
    {!check}'s completeness audit);
    [watchdog] attaches an online checker of the guarantee, created with
    [sinks], so its first alert — the first violation — triggers the
    flight recorder's capture. Each refresh commit of [ts] at secondary [i]
    calls [on_refresh_commit i ts lag] (applied once per site and kept for
    recovery), where [lag] is the time since [ts] committed at the primary
    ([None] when [ts] is not on the commit clock: it was committed straight
    on the primary's store); then a [Some] lag goes to
    [<site>.refresh_lag] and the watchdog's horizon for the site advances.
    Each read at secondary [i] calls [on_read i ~age ~missed] with its
    snapshot's freshness (see {!begin_read}). [faults = Some (config, seed)]
    puts a fault {!Channel} before every secondary, each drawing its own
    stream split from [seed] in site order. *)
val create :
  ?now:(unit -> float) ->
  on_refresh_commit:(int -> Timestamp.t -> float option -> unit) ->
  on_read:(int -> age:float -> missed:int -> unit) ->
  faults:(Channel.config * int) option ->
  ship_aborted:bool ->
  sinks:Lsr_obs.Sinks.t ->
  record_history:bool ->
  watchdog:bool ->
  ?history:History.t ->
  sites:int ->
  Session.guarantee ->
  t

val primary : t -> Primary.t
val propagator : t -> Propagation.t
val sessions : t -> Session.t
val clock : t -> Session.clock
val history : t -> History.t
val watchdog : t -> Watchdog.t option

(** The current instant on the core's time axis. *)
val now : t -> float

(** A history is recorded or a watchdog attached: drivers must collect the
    values their transactions read. *)
val tracking : t -> bool

(** {2 Secondaries} *)

val sites : t -> int

(** The current replica at secondary [i] (a fresh one after recovery). *)
val secondary : t -> int -> Secondary.t

val is_crashed : t -> int -> bool

(** [broadcast t records ~direct] hands a propagated batch to every live
    secondary's fault channel, or to [direct i records] without one. *)
val broadcast :
  t -> Wal.entry list -> direct:(int -> Wal.entry list -> unit) -> unit

(** [deliver t i] advances live secondary [i]'s fault channel one tick and
    enqueues its in-order deliveries; [true] when anything arrived. *)
val deliver : t -> int -> bool

(** Every live secondary's fault channel has delivered all it was sent. *)
val channels_idle : t -> bool

(** Fault-channel counters summed over every secondary. *)
val channel_stats : t -> Channel.stats

(** Secondary [i] crashed: its channel's connection state is lost, and
    {!check} holds it to final-state equality instead of completeness. *)
val crashed : t -> int -> unit

(** [recovered t i ~backup ~seq] installs a fresh replica at secondary [i],
    restored from [backup] with [seq(DBsec)] reseeded to [seq]. *)
val recovered : t -> int -> backup:string -> seq:Timestamp.t -> unit

(** {2 Transactions} *)

(** A transaction between its begin and finish hooks. *)
type txn

(** An update of [session] starts; one token serves every retried attempt. *)
val begin_update : t -> session:string -> txn

(** The update finished with [outcome]. A commit advances [seq(c)] and the
    commit clock; an abort is recorded at snapshot zero and pins nothing.
    [reads] are ignored unless {!tracking}. *)
val finish_update :
  t -> txn -> session:string -> reads:(string * string option) list ->
  _ Primary.outcome -> unit

(** A read-only transaction of [session] starts at secondary [site] (its
    index) with [snapshot], its seq(DBsec); the session's read floor rises
    as the guarantee and fence require. The snapshot's freshness on the
    commit clock — [age], how old its newest reflected primary commit is (0
    when caught up), and [missed], the primary commits it does not reflect
    — goes to the driver's [on_read] hook and, with a registry attached, to
    the site's instruments. *)
val begin_read :
  ?fence:Session.fence -> t -> session:string -> site:int ->
  snapshot:Timestamp.t -> txn

(** The read at secondary [site] (its index) finished. [read_at] is when
    its fence resolved its horizon; [fence_seq] is the seq floor it was held
    to ([-1] when unfenced). *)
val finish_read :
  ?fence:Session.fence -> t -> txn -> session:string -> site:int ->
  snapshot:Timestamp.t -> read_at:float -> fence_seq:int ->
  reads:(string * string option) list -> unit

(** {2 Verdict} *)

(** The end-of-run checker battery. With a history recorded: completeness
    of every live never-crashed secondary against the primary (Theorem 3.1)
    or, for a recovered one with an empty update queue, final-state
    equality; weak SI of the history (Theorem 3.2); the fence audit; and
    the guarantee, one line naming it with the number of offending
    inversions and the first. Then the attached watchdog's verdict: one
    line with its alert count when it raised any. Returns
    the violations (empty when the run passed) and the report behind them
    ([None] without a history). *)
val check : t -> string list * Checker.report option
