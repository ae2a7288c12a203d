(** Consistency watchdog: streaming SI-anomaly detection with bounded
    memory, the one judge of the paper's Definitions 2.1/2.2 and of
    Theorem 3.2's weak-SI reads.

    It subscribes to the live event stream at exactly the points where
    [History] records transactions, and {!replay} feeds it a recorded
    history after the run the same way. It performs three audits:

    - {e weak-SI read validation}: every recorded read is checked against the
      primary state sequence at the reader's snapshot, answered by walking
      the key's live committed versions from its newest down to the first
      at or below the snapshot (the same pinned-version rule the
      serialization-graph test [Mvsg] uses). Keys are numbered by the
      watchdog's own table, never by the stores' key dictionary, so the
      judge does not trust what it audits;
    - {e inversion floors}: an O(1)-amortized floor update per commit — the
      maximal state pinned by any finished committed transaction is
      maintained globally, per session, and per session restricted to
      updates (the PCSI floor), and every transaction captures the three
      floors at its first operation;
    - {e fence audit}: each session's fence floor (its updates' commits and
      its [Session_seq]-fenced reads' snapshots) is maintained the same way,
      and [Exact]/[Max_age]/[Session_seq] claims are checked the moment the
      fenced read finishes.

    The watchdog judges the run against the guarantee it promises. An
    {e alert} is a violation of it: a read mismatch, a fence failure, or an
    inversion at the guarantee's {!Session.forbidden_level}. Alerts surface
    immediately as typed {!alert}s (bounded log, per-kind counters), and
    the first one triggers the attached flight recorder's capture. An
    inversion at any other level is no violation: it only bumps the
    verdict's count for its level. An alert carries ids, not journeys: the
    flight recorder's capture holds each implicated update's pipeline
    events.

    {b Bounded memory.} State below a retirement horizon is retired
    continuously. The watchdog keeps no horizon inputs of its own: its
    caller owns the horizon and hands it over ({!retire_below}).
    [Replica_set] passes the minimum over every secondary's seq(DBsec) and
    every open client transaction's snapshot; {!replay} derives its own
    from the history. A committed version at or below the horizon folds
    into a per-key base value and leaves the ring of live versions. Session
    floors below it are swept out, because no future snapshot can be older
    than the horizon at its own first operation. A run with the watchdog on
    and history recording {e off} verifies the same guarantees with
    versions, floors and tokens in O(active visibility window) memory
    instead of O(run length). Only the base values, one per key ever
    written, are bounded by the key space instead, and {!state_size} does
    not count them.

    {b Equivalence.} A transaction's floors are those of the definitions:
    the begin/end hooks fire adjacent to the wall-order ticks [History]
    records ([finished < first_op] iff the earlier transaction's end hook
    ran before the later one's begin hook), and ties keep the earlier
    witness. {!replay} calls the hooks in that tick order, so it gives the
    online verdict and alerts on the run's history. Both are checked
    against independent references in [test/]: the differential suite in
    [test/test_watchdog.ml] compares the online verdict with the quadratic
    [Legacy_checker] and a separate fence sweep across fuzzed runs, and
    [replay] with the online watchdog; test_core and test_checker_diff
    judge {!replay} against brute-force transcriptions of the definitions.
    Aborted transactions pin nothing and are never validated (the
    definitions quantify over committed transactions only). *)

open Lsr_storage

type t

(** Which inversion floor a violation was detected against. *)
type level = Session.level =
  | All_sessions  (** any earlier transaction (strong SI) *)
  | In_session  (** one of the same session (strong session SI) *)
  | After_update  (** an update of the same session (PCSI) *)

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

(** An alert of {!replay}, its [at] printed as the history tick it is. *)
val pp_replayed : Format.formatter -> alert -> unit

(** The run's counts. [alerts_total] counts every alert, including any
    dropped beyond the bounded log; a run kept its guarantee exactly when
    it is 0. The three inversion counts cover every level, forbidden or
    not. *)
type verdict = {
  read_mismatches : int;
  v_inversions_all : int;
  v_inversions_in_session : int;
  v_inversions_after_update : int;
  fence_failures : int;
  alerts_total : int;
  alerts_dropped : int;  (** alerts beyond the bounded log's capacity *)
}

(** [create ~guarantee ()] is a fresh watchdog judging a system against
    [guarantee]. The retained alert log keeps
    the first 256 alerts (counters keep exact totals past the cap).
    [clock] is the primary commit clock used to audit [Max_age] claims; a
    [Max_age] claim without a clock is itself a violation (recording fenced
    reads without the clock is a harness bug). The watchdog keeps its own counts (its
    {!verdict}, {!peak_state} and {!state_size}); the first alert triggers
    [flight] (reason ["watchdog"], implicating the offending transaction
    and, for an inversion, its witness). *)
val create :
  ?flight:Lsr_obs.Flight.t ->
  ?clock:Session.clock ->
  guarantee:Session.guarantee ->
  unit ->
  t

(** {2 Event stream}

    One token per transaction: obtained at the transaction's first operation
    (where [History] takes its [first_op] tick — the token captures the
    inversion and fence floors at that instant), consumed exactly once at
    its finish. While a token is out, the horizon passed to
    {!retire_below} must stay at or below the transaction's snapshot.
    Hooks must be called with no scheduler yield between the corresponding
    [History] tick and the hook. *)

type token

(** [begin_txn t ~session] — a transaction of [session] takes its first
    operation: a read-only one at its secondary, an update at the primary.
    Each declares its snapshot at its end. *)
val begin_txn : t -> session:string -> token

(** The token of a transaction no watchdog sees; it must not reach
    {!end_read} or {!end_update}. *)
val unwatched : token

(** [end_read t token ~id ~site ~now ?fence ~snapshot ~reads] — the
    read-only transaction finished at [snapshot] (its secondary's
    seq(DBsec) at its begin): validate [reads], the reads it was served, check
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
  snapshot:Timestamp.t ->
  reads:History.reads ->
  unit

(** [end_update t token ~id ~now ~commit_ts ~writes ~snapshot ~reads] —
    the update transaction committed [writes] at [commit_ts]: validate
    reads (own-written keys excluded), check the captured floors, raise
    all floors to [commit_ts], and append the writes as each key's newest
    live versions (commits must arrive in commit-timestamp order). *)
val end_update :
  t ->
  token ->
  id:int ->
  now:float ->
  commit_ts:Timestamp.t ->
  writes:Wal.update list ->
  snapshot:Timestamp.t ->
  reads:History.reads ->
  unit

(** [release t token] — the transaction ended without committing (it
    aborted, or its body raised): its hold on its session's floors goes,
    nothing is checked (the definitions quantify over committed
    transactions) and no floor is raised. *)
val release : t -> token -> unit

(** [retire_below t h] raises the retirement horizon to [h] (a lower [h]
    leaves it), folds every committed version at or below [h] into its
    key's base, and sweeps session floors at or below the horizon. [h] must
    be at most every snapshot an outstanding or future token will read at:
    [Replica_set] passes the minimum of every site's seq(DBsec) and every
    open transaction's snapshot at its [Commit i] and [Recover i] moves. *)
val retire_below : t -> Timestamp.t -> unit

(** {2 Replay} *)

(** [replay ?clock ~guarantee history] is a fresh watchdog with no flight
    recorder, fed every committed transaction of [history]: its begin at
    the transaction's [first_op] tick and its end hook at its [finished]
    tick (an end ticked before a begin runs first; on a tie, the begin
    does), each alert stamped with the [finished] tick as its time (print
    it with {!pp_replayed}). Before each begin it retires below the
    smallest recorded snapshot among the transactions not finished by then,
    a horizon it derives from the history alone: no transaction still open
    or begun later reads below it. [clock] audits [Max_age] claims, as in
    {!create}.
    [Replica_set.check] runs it on a recorded run. The history must meet
    the end hooks' contract: each transaction's [first_op <= finished], and
    committed updates' timestamps increasing in [finished] order, as a
    primary commits them.

    It reads the history's columns in place, one read buffer serving
    every end, and keeps four int arrays of n words for n recorded
    transactions (begin and end order, the horizon per end, the tokens)
    beyond the watchdog's own state: for each key written, at least two
    key-table slots and one slot in each of three columns (name, folded
    base, newest live version), and four words of a 1,024-version chunk
    per live version. It runs in O(n log n) time plus, for each of the R
    recorded reads, a step per live version of its key newer than its
    snapshot. *)
val replay :
  ?clock:Session.clock -> guarantee:Session.guarantee -> History.t -> t

(** {2 Results} *)

(** Retained alerts sorted by (virtual time, txn id) — deterministic for a
    deterministic run. *)
val alerts : t -> alert list

val verdict : t -> verdict

(** {2 Introspection} *)

(** Current tracked state: live versions + commits holding one + session
    floors + outstanding tokens (the quantity bounded by the active
    visibility window); not the per-key base values. *)
val state_size : t -> int

val peak_state : t -> int

(** Committed versions folded into the per-key base values so far. *)
val retired_versions : t -> int

val live_versions : t -> int

(** The current retirement horizon: the highest [h] passed to
    {!retire_below}; every version at or below it is retired. *)
val horizon : t -> Timestamp.t

(** Deterministic JSON report: verdict counts, state/peak/retired sizes and
    the retained alerts (sorted), all object keys sorted
    ({!Lsr_obs.Json.sort_keys}). *)
val report_json : t -> Lsr_obs.Json.t
