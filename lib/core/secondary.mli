(** Secondary-site refresh machinery — Algorithms 3.2 and 3.3.

    A secondary holds a full database copy, a FIFO {e update queue} of
    propagated records, and a FIFO {e pending queue} of {e applicators},
    each installing one dispatched refresh transaction, in primary commit
    order.

    The refresher consumes the update queue:
    - a {e start} record blocks until the pending queue is empty, then opens
      the refresh transaction (this enforces relationships 1 and 2 of §3.1:
      a refresh transaction starts only after every refresh transaction whose
      primary counterpart committed before this one started has committed
      locally);
    - a {e commit} record hands its shipped update list to the refresh
      transaction whole ({!Lsr_storage.Mvcc.write_all}), where it stays
      buffered and unseen until its commit, and hands the transaction to an
      applicator at the tail of the pending queue. No update is written one
      by one and no record is copied: the commit checks first-committer-wins
      by walking the list and installs it, and a commit list keeps the
      shipped list itself, so the secondaries of one primary share every
      propagated writeset with the primary's commit that logged it;
    - an {e abort} record discards the refresh transaction.

    An applicator commits once it heads the pending queue — enforcing
    relationship 3 (local commits in primary commit order). Committing pops
    it and advances [seq(DBsec)], the sequence number used by
    ALG-STRONG-SESSION-SI.

    The module is a pure state machine: each transition is a [*_step]
    function, so the embedded system can drain it synchronously while the
    simulator interleaves steps under virtual time. *)

open Lsr_storage

type t

exception Refresh_conflict of { txn : int; key : string }
(** Raised if a refresh transaction fails first-committer-wins locally. The
    propagation/refresh ordering rules make this impossible (Theorem 3.1);
    raising loudly turns any protocol bug into a test failure. *)

exception Commit_without_start of { txn : int }
(** Raised by {!refresher_step} on a commit record with no open refresh
    transaction: only a channel that lost a start record gets here. *)

(** [create ~name ()] is a fresh secondary whose local copy is [db]
    (default: an empty store with no log and no commit list); the §3.4
    recovery path passes a {!Lsr_storage.Mvcc.restore}d one, and then
    reseeds [seq(DBsec)] with {!reseed_seq}. [on_refresh_commit] fires after each refresh transaction commits, with
    the primary commit timestamp just installed (used to wake blocked
    read-only transactions). [sinks.obs] receives per-site counters and
    queue-depth gauges named [<name>.refresh_started/aborted],
    [<name>.update_queue_depth] and [<name>.pending_depth] (a commit is
    counted once, by {!Replica_set}'s [<name>.refresh_lag]); the [Enqueued]
    (commit record entered the update queue), [Refresh_started] and
    [Refresh_committed] stages are tapped tagged with this site's [name].
    The default {!Lsr_obs.Sinks.null} makes all of it a no-op. *)
val create :
  ?name:string ->
  ?sinks:Lsr_obs.Sinks.t ->
  ?on_refresh_commit:(Timestamp.t -> unit) ->
  ?db:Mvcc.t ->
  unit ->
  t

(** The local database copy. *)
val db : t -> Mvcc.t

(** The site name given at creation (tags this site's flight events). *)
val name : t -> string

(** [enqueue t record] appends a propagated record to the update queue
    (records must arrive in primary log order; the channel is FIFO). *)
val enqueue : t -> Wal.entry -> unit

(** [seq_dbsec t] is the primary commit timestamp of the latest refresh
    transaction committed here — the state of this copy "in terms of the
    primary database" (§4). *)
val seq_dbsec : t -> Timestamp.t

(** [reseed_seq t ts] reinitializes [seq(DBsec)] after recovery from a
    database copy whose state corresponds to primary timestamp [ts] (§4's
    dummy-transaction recovery). *)
val reseed_seq : t -> Timestamp.t -> unit

(** {2 Refresher (Algorithm 3.2)} *)

type refresher_outcome =
  | Started of int  (** opened the refresh transaction for this primary txn *)
  | Dispatched of applicator
      (** commit record consumed and its updates handed to the refresh
          txn; an applicator now owns it *)
  | Aborted of int  (** abort record consumed *)
  | Blocked_on_pending
      (** head is a start record but the pending queue is not empty *)
  | Idle  (** update queue empty *)

and applicator

(** One refresher iteration: examine the head of the update queue. *)
val refresher_step : t -> refresher_outcome

(** {2 Applicator (Algorithm 3.3)} *)

type applicator_outcome =
  | Waiting_commit  (** not yet at the pending-queue head *)
  | Committed of Timestamp.t
      (** refresh transaction committed; value is the primary commit ts *)
  | Done  (** already committed earlier *)

(** One commit attempt: the applicator commits if it heads the pending
    queue. *)
val applicator_step : t -> applicator -> applicator_outcome

(** Commit timestamp an applicator installs. *)
val applicator_commit_ts : applicator -> Timestamp.t

(** Local start timestamp of the refresh transaction (issued by this
    secondary's own concurrency control when the start record was
    processed). Lets tests verify relationships 1 and 2 of §3.1 directly. *)
val applicator_local_start : applicator -> Timestamp.t

(** The pending queue: applicators dispatched but not yet committed, head
    (the one that commits next) first. *)
val active_applicators : t -> applicator list

(** {2 Synchronous drain (embedded mode)} *)

(** [drain t] runs refresher steps and commits until no progress is
    possible (update queue empty or waiting for records not yet received).
    Returns the number of refresh transactions committed. *)
val drain : t -> int

(** {2 Introspection} *)

val update_queue_length : t -> int

(** Length of the pending queue ({!active_applicators}). *)
val pending_queue_length : t -> int

(** Head of the update queue, without consuming it (the simulator reads the
    updates or wasted work it must charge for before stepping). *)
val peek_update : t -> Wal.entry option
