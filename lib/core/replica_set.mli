(** The replica-set core shared by the embedded {!System} and the simulator
    ([Lsr_experiments.Sim_system]): the primary and its propagator, the
    session manager, the primary commit clock, the {!History}, the optional
    {!Watchdog} judging the run's guarantee, the observability
    {!Lsr_obs.Sinks}, and the site table — per secondary its current
    replica, its link from the propagator (a plain FIFO queue or a fault
    {!Channel}) and whether it is crashed or was ever recovered. Drivers
    keep when transactions run and how they wait; the core opens, serves
    and ends every client transaction: it opens the MVCC transaction (an
    update's at the primary, a read's at its site's replica), hands the
    driver a {!Handle.t} whose reads land in the transaction's record,
    commits an update under first-committer-wins, and does the bookkeeping
    once: history ticks and ids, read thresholds, [seq(c)] and read
    floors, the commit clock, read freshness and refresh lag, per-site
    freshness instruments, flight events, watchdog tokens and the history
    record. {!check} is the one end-of-run verdict both drivers report.
    The protocol's moves are performed here ({!fire}) and nowhere else.

    Ordering rules the hooks encode:
    - a history tick and its watchdog hook happen in one hook call, so no
      scheduler yield separates them;
    - the flight recorder notes a commit before the watchdog judges it, so a
      capture that commit triggers contains its witness;
    - commits reach the watchdog in commit-timestamp order: {!commit}
      commits at the primary and judges the commit in one call.

    With no watchdog, history, registry or flight recorder attached, the
    hooks allocate only the transaction's record and handle and the
    freshness and lag values they hand to the driver.

    Read freshness and refresh lag are computed here once per event, on the
    commit clock, and handed to the driver's [on_read] and
    [on_refresh_commit] hooks. They also go to an attached {!Lsr_obs.Obs}
    registry as four instruments per secondary, interned together on the
    site's first sample: histograms [<site>.read_age], [<site>.read_missed] and
    [<site>.refresh_lag], and the gauge [<site>.missed_commits], whose peak
    is the exact maximum of [read_missed] ([Lag_report] reads them).

    Every protocol move is observed where {!fire} fires it, and only
    there: [Poll] notes [Batched]/[Shipped] per start/commit record and
    updates [propagation.polls], [propagation.records_shipped] and
    [propagation.in_flight]; [Deliver i] notes [Enqueued] per commit
    record and sets [<site>.update_queue_depth]; [Refresh i] notes
    [Refresh_started], counts [<site>.refresh_started] /
    [<site>.refresh_aborted] and sets the depth gauges it moved;
    [Commit i] sets [<site>.pending_depth], notes [Refresh_committed] and
    runs the refresh-commit chain of {!create}. These instruments are
    interned when the site is created, so a recovered replica counts into
    the same ones. *)

open Lsr_storage

type t

(** [create ~sinks ~record_history ~watchdog ~sites guarantee] is the core
    of a system with [sites] secondaries ["secondary-<i>"]. [schema] maps
    table names to their indexed fields for every {!Handle.t} it hands out
    (none by default). [now] is the
    simulator's virtual clock: the flight recorder is bound to it and
    starts a new epoch. Without it the time axis is the history event
    counter, so [Max_age] fences, freshness samples and refresh lags count
    history events. [record_history] keeps every finished transaction, in
    [history] (a fresh one by default);
    [watchdog] attaches an online checker of the guarantee, created with
    [sinks], so its first alert — the first violation — triggers the
    flight recorder's capture. Each refresh commit of [ts] at secondary [i]
    calls [on_refresh_commit i ts lag], where [lag] is the time since [ts]
    committed at the primary ([None] when [ts] is not on the commit clock:
    it was committed straight on the primary's store); then a [Some] lag
    goes to [<site>.refresh_lag] and the watchdog's horizon for the site
    advances.
    Each read at secondary [i] calls [on_read i ~age ~missed] with its
    snapshot's freshness (see {!begin_read}). [faults = Some (config, seed)]
    makes every secondary's link a fault {!Channel}, each drawing its own
    stream split from [seed] in site order. *)
val create :
  ?now:(unit -> float) ->
  ?schema:(string * string list) list ->
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

(** {2 Secondaries} *)

val sites : t -> int

(** Secondary [i]'s name, ["secondary-<i>"]: it prefixes the site's
    instruments and tags its flight events. *)
val site_name : t -> int -> string

(** The current replica at secondary [i] (a fresh one after recovery). *)
val secondary : t -> int -> Secondary.t

val is_crashed : t -> int -> bool

(** Every site's link is a fault {!Channel} ([faults] was given). *)
val faulty : t -> bool

(** Fault-channel counters summed over every secondary. *)
val channel_stats : t -> Channel.stats

(** {2 Moves}

    The protocol as a transition relation, the one place its state
    changes. Each secondary's link from the propagator is a plain FIFO
    queue of batches or a fault {!Channel}. *)

type action =
  | Poll  (** Alg. 3.1: put the log past the cursor on every live link *)
  | Deliver of int
      (** site [i]'s oldest plain batch, or one channel tick's in-order
          deliveries, into its update queue *)
  | Refresh of int  (** Alg. 3.2: the refresher takes its head record *)
  | Commit of int  (** Alg. 3.3: commit the pending queue's head *)
  | Crash of int  (** §3.4: the site and its link's contents are lost *)
  | Recover of int
      (** a quiesced copy of the primary (after a [Poll] when the log holds
          anything past the cursor), [seq(DBsec)] at its latest commit *)

type fired =
  | Shipped of int  (** [Poll] or [Deliver] moved this many records *)
  | Started  (** [Refresh] opened a refresh transaction *)
  | Dispatched of int
      (** [Refresh] handed this many updates to a refresh transaction,
          now the pending queue's tail *)
  | Aborted of int  (** [Refresh] discarded an abort of this many writes *)
  | Committed of Timestamp.t  (** [Commit] installed this primary commit *)
  | Nothing  (** not enabled, no record moved, or a crash or recovery *)

(** The replication moves enabled now: [Poll], then per live site in index
    order [Deliver i], [Refresh i], [Commit i]. [Crash] and [Recover] are
    fired on purpose, never listed. *)
val enabled : t -> action list

(** [fire t a] performs [a]. A move that is not enabled changes no
    replication state and returns [Nothing] ([Poll] still counts a poll, a
    fault channel's [Deliver] still ticks it), and a crashed site's
    [Crash] or a live one's [Recover] does nothing. *)
val fire : t -> action -> fired

(** {2 Transactions} *)

(** A client transaction from its begin to its end: its MVCC transaction
    and the {!Handle.t} serving it, its watchdog token, session, site,
    snapshot, fence claim and floor, and the reads it has been served. *)
type txn

(** An update of [session] starts, and with it the MVCC transaction of its
    first attempt at the primary's latest committed state. One record
    serves every retried attempt. *)
val begin_update : t -> session:string -> txn

(** The handle serving the transaction's current attempt. Every read made
    through it is kept in the record when a history is recorded or a
    watchdog attached. *)
val handle : txn -> Handle.t

(** [commit t txn] commits the update's attempt under first-committer-wins;
    [force_abort] aborts it instead (the paper's [abort_prob]). A commit
    advances [seq(c)] and the commit clock, and the watchdog judges, and
    the history records, the reads served since {!begin_update} or the last
    {!retry}: the update is finished. An abort leaves it open, for {!retry}
    or {!finish_aborted}. *)
val commit :
  ?force_abort:bool -> t -> txn -> (unit, Mvcc.abort_reason) result

(** The update's attempt aborted and it runs again under the same record:
    the reads served so far are dropped and the next attempt's MVCC
    transaction starts; {!handle} serves it. *)
val retry : t -> txn -> unit

(** The update's attempt aborted and it runs no more: it is judged and
    recorded at snapshot zero, and pins nothing. *)
val finish_aborted : t -> txn -> unit

(** The transaction's body raised: its MVCC transaction aborts (a read's
    just ends), it ends unrecorded, and the watchdog drops its pin and its
    hold on the session's floors. *)
val abandon : t -> txn -> unit

(** The live seq(DBsec) threshold of a read-only transaction of [session]
    submitted now ({!Session.read_threshold}). *)
val read_threshold :
  ?fence:Session.fence -> t -> session:string -> unit -> Timestamp.t

(** A read-only transaction of [session] submitted at [read_at] (by
    default now) with threshold [required] starts at secondary [site] (its
    index). Its snapshot is the site's seq(DBsec) now; its fence floor is
    [required ()] when fenced ([-1] otherwise), taken before the session's
    read floor rises as the guarantee and fence require. The snapshot's freshness on
    the commit clock — [age], how old its newest reflected primary commit
    is (0 when caught up), and [missed], the primary commits it does not
    reflect — goes to the driver's [on_read] hook and, with a registry
    attached, to the site's instruments. Its MVCC transaction opens on the
    site's replica; {!handle} serves it. *)
val begin_read :
  ?fence:Session.fence -> ?read_at:float -> t -> session:string -> site:int ->
  required:(unit -> Timestamp.t) -> txn

(** The read finished: its MVCC transaction ends, the flight recorder notes
    it with its fence floor, the watchdog judges it and the history records
    it. A read that wrote is abandoned and raises [Invalid_argument]. *)
val finish_read : t -> txn -> unit

(** {2 Verdict} *)

(** The end-of-run verdict. In every run: completeness (Theorem 3.1), one
    line per secondary naming the first {!Secondary.diverged} txn of any of
    its copies (a [Recover] does not clear it), where [Commit i] triggered
    the flight capture, and, for a recovered secondary refreshed up to the
    primary's latest commit, final-state equality ({!Lsr_storage.Mvcc.same_state}).
    With a history recorded: {!Watchdog.replay} of it against the
    guarantee, one line with its read mismatches (weak SI, Theorem 3.2),
    fence failures and forbidden inversions and its first alert when it
    raised any. Then the attached watchdog's verdict: one line with its
    alert count when it raised any. Returns the violations (empty when the
    run passed) and the replay's verdict ([None] without a history). *)
val check : t -> string list * Watchdog.verdict option
