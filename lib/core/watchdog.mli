(** Online consistency watchdog: streaming SI-anomaly detection with bounded
    memory.

    {!Checker} audits a fully recorded {!History} after the run; this module
    performs the same three audits {e while the run executes}, subscribing to
    the live event stream at exactly the points where [History] records
    transactions today:

    - {e weak-SI read validation}: every recorded read is checked against the
      primary state sequence at the reader's snapshot, answered from per-key
      committed-writer chains by binary search (the same pinned-version rule
      the serialization-graph test [Mvsg] uses);
    - {e inversion floors}: the sorted sweep of {!Checker.analyze} becomes
      an O(1)-amortized floor update per commit — the maximal state pinned by
      any finished committed transaction is maintained globally, per session,
      and per session restricted to updates (the PCSI floor), and every
      transaction captures the three floors at its first operation;
    - {e fence audit}: the {!Checker.analyze} wall-order session floor
      is maintained the same way, and [Exact]/[Max_age]/[Session_seq] claims
      are checked the moment the fenced read finishes.

    The watchdog judges the run against the guarantee it promises. An
    {e alert} is a violation of it: a read mismatch, a fence failure, or an
    inversion at the guarantee's {!Session.forbidden_level}. Alerts surface
    immediately as typed {!alert}s (bounded log, per-kind counters), and
    the first one triggers the attached flight recorder's capture. An
    inversion at any other level is no violation: it only bumps the
    verdict's count for its level. An alert carries ids, not journeys: the
    flight recorder's capture holds each implicated update's pipeline
    events.

    {b Bounded memory.} State below the global minimum secondary visibility
    horizon is retired continuously: once every secondary has refreshed past
    a committed version — and no in-flight transaction's snapshot pins it —
    the version folds into a per-key base value and its chain entry is
    dropped; session floors below the horizon are swept out, because no
    future snapshot can be older than the horizon at its own first operation.
    A run with the watchdog on and history recording {e off} verifies the
    same guarantees with versions, floors and pins in O(active visibility
    window) memory instead of O(run length); only the base values, one per
    key ever written, are bounded by the key space instead, and
    {!state_size} does not count them.

    {b Equivalence.} For every committed transaction the captured floors
    equal the post-hoc sweep's floors exactly, because the begin/end hooks
    fire adjacent to the same wall-order ticks [History] uses ([finished <
    first_op] iff the earlier transaction's end hook ran before the later
    one's begin hook) and ties keep the earlier witness, like
    {!Checker.analyze}. The differential suite in [test/test_watchdog.ml]
    checks the verdict against {!Checker.analyze} across fuzzed runs, and
    replays each run's history into watchdogs promising each level to match
    their alerts witness for witness. Aborted transactions pin nothing and
    are never validated (the definitions quantify over committed
    transactions only). *)

open Lsr_storage

type t

exception Unknown_site of { site : int; sites : int }
(** Raised by {!note_refresh} for a site outside [0 .. sites - 1]. *)

(** Which inversion floor a violation was detected against — mirroring the
    three lists of {!Checker.report}. *)
type level = Session.level =
  | All_sessions  (** {!Checker.report.inversions_all} (strong SI) *)
  | In_session  (** [inversions_in_session] (strong session SI) *)
  | After_update  (** [inversions_after_update] (PCSI) *)

type alert_kind =
  | Read_mismatch of {
      key : string;
      observed : string option;
      expected : string option;
    }
      (** A recorded read disagreed with the primary state sequence at the
          reader's snapshot. *)
  | Inversion of { level : level; earlier : int; floor : Timestamp.t }
      (** The transaction's snapshot is older than the maximal state pinned
          by committed transaction [earlier], which finished before this
          transaction's first operation; [level] is the forbidden one. *)
  | Fence_violation of { detail : string }
      (** A fenced read's snapshot did not honour its freshness claim. *)

type alert = {
  at : float;  (** virtual time of detection (the transaction's finish) *)
  txn : int;  (** the offending transaction's history id *)
  session : string;
  site : string;
  snapshot : Timestamp.t;
  kind : alert_kind;
}

val pp_alert : Format.formatter -> alert -> unit

(** The run's counts. [alerts_total] counts every alert, including any
    dropped beyond the bounded log; a run kept its guarantee exactly when
    it is 0. The three inversion counts cover every level, forbidden or
    not — the online mirror of {!Checker.report}'s three lists. *)
type verdict = {
  read_mismatches : int;
  v_inversions_all : int;
  v_inversions_in_session : int;
  v_inversions_after_update : int;
  fence_failures : int;
  alerts_total : int;
  alerts_dropped : int;  (** alerts beyond the bounded log's capacity *)
}

(** [create ~guarantee ~sites ()] is a fresh watchdog judging a system with
    [sites] secondaries against [guarantee]. The retained alert log keeps
    the first 256 alerts (counters keep exact totals past the cap).
    [clock] is the primary commit clock used to audit [Max_age] claims —
    as in {!Checker.analyze}'s fence audit, a [Max_age] claim without a
    clock is itself a violation. The watchdog keeps its own counts (its
    {!verdict}, {!peak_state} and {!state_size}); the first alert triggers
    [flight] (reason ["watchdog"], implicating the offending transaction
    and, for an inversion, its witness). *)
val create :
  ?flight:Lsr_obs.Flight.t ->
  ?clock:Session.clock ->
  guarantee:Session.guarantee ->
  sites:int ->
  unit ->
  t

(** {2 Event stream}

    One token per transaction: obtained at the transaction's first operation
    (where [History] takes its [first_op] tick — the token captures the
    inversion and fence floors at that instant and pins the retirement
    horizon), consumed exactly once at its finish. Hooks must be called with
    no scheduler yield between the corresponding [History] tick and the
    hook. *)

type token

(** [begin_read t ~session ~snapshot] — a read-only transaction starts
    with [snapshot] (its secondary's seq(DBsec)). Pins the horizon at
    [snapshot]. *)
val begin_read : t -> session:string -> snapshot:Timestamp.t -> token

(** [begin_update t ~session] — an update transaction starts at the
    primary. Pins the horizon at the newest commit seen so far (a lower
    bound for any snapshot a retrying attempt can observe). *)
val begin_update : t -> session:string -> token

(** The token of a transaction no watchdog sees; it must not reach
    {!end_read} or {!end_update}. *)
val unwatched : token

(** [end_read t token ~id ~site ~now ?fence ~reads] — the read-only
    transaction finished: validate [reads], the reads it was served, check
    the captured inversion floors, audit the fence claim, then raise the
    floors it pins (its snapshot; also the session fence floor for a
    [Session_seq] claim). *)
val end_read :
  ?fence:History.fence_claim ->
  t ->
  token ->
  id:int ->
  site:string ->
  now:float ->
  reads:History.reads ->
  unit

(** [end_update t token ~id ~now ~commit ~snapshot ~reads] — the
    update transaction finished. [commit = Some (commit_ts, writes)]:
    validate reads (own-written keys excluded), check the captured floors,
    raise all floors to [commit_ts], and append the writes to the per-key
    version chains (commits must arrive in commit-timestamp order).
    [commit = None]: the transaction aborted — it pins nothing, nothing is
    checked (matching the checker, which quantifies over committed
    transactions), the token only releases its horizon pin. *)
val end_update :
  t ->
  token ->
  id:int ->
  now:float ->
  commit:(Timestamp.t * Wal.update list) option ->
  snapshot:Timestamp.t ->
  reads:History.reads ->
  unit

(** [release t token] — the transaction ended without finishing (its body
    raised): its horizon pin and its hold on its session's floors go,
    nothing is checked and no floor is raised. *)
val release : t -> token -> unit

(** [note_refresh t ~site ~seq] — secondary [site] committed a refresh
    transaction, advancing its seq(DBsec) to [seq] ([Replica_set]'s
    [Commit i] move calls it). Advances the retirement
    horizon and retires versions and session floors below it. *)
val note_refresh : t -> site:int -> seq:Timestamp.t -> unit

(** {2 Results} *)

(** Retained alerts sorted by (virtual time, txn id) — deterministic for a
    deterministic run. *)
val alerts : t -> alert list

val verdict : t -> verdict

(** {2 Introspection} *)

(** Current tracked state: live chain versions + unretired commits + session
    floors + active transaction pins (the quantity bounded by the active
    visibility window); not the per-key base values. *)
val state_size : t -> int

val peak_state : t -> int

(** Committed versions folded into the base map so far. *)
val retired_versions : t -> int

val live_versions : t -> int

(** The current retirement horizon (newest commit timestamp with every
    version at or below it retired-or-retirable). *)
val horizon : t -> Timestamp.t

(** Deterministic JSON report: verdict counts, state/peak/retired sizes and
    the retained alerts (sorted), all object keys sorted
    ({!Lsr_obs.Json.sort_keys}). *)
val report_json : t -> Lsr_obs.Json.t
