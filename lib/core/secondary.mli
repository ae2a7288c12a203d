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
      by walking the list and installs it, so the secondaries of one
      primary share every propagated writeset with the primary's commit
      that logged it;
    - an {e abort} record discards the refresh transaction.

    The head of the pending queue commits ({!commit_head}) — enforcing
    relationship 3 (local commits in primary commit order). Committing pops
    it and advances [seq(DBsec)], the sequence number used by
    ALG-STRONG-SESSION-SI, then compares the copy's digest with its commit
    record's, the primary's after that commit (Theorem 3.1, {!diverged}).

    The module is a pure state machine with two transitions, a refresher
    step and a head commit, fired only as {!Replica_set}'s [Refresh i] and
    [Commit i] moves. It observes nothing: [Replica_set.fire] notes each
    move's stages and instruments where it fires it. *)

open Lsr_storage

type t

exception Refresh_conflict of { txn : int; key : string }
(** Raised if a refresh transaction fails first-committer-wins locally. The
    propagation/refresh ordering rules make this impossible (Theorem 3.1);
    raising loudly turns any protocol bug into a test failure. *)

exception Commit_without_start of { txn : int }
(** Raised by {!refresher_step} on a commit record with no open refresh
    transaction, unless it predates [resumed_at]: only a channel that lost
    a start record gets here. *)

(** [create ()] is a fresh secondary whose local copy is [db] (default: an
    empty store with no log) and whose [seq(DBsec)] is
    [seq] (default zero); the §3.4 recovery path passes a
    {!Lsr_storage.Mvcc.restore}d copy and the primary timestamp it reflects
    (§4's dummy-transaction rule) and the primary's next txn id
    [resumed_at]: a lower id's commit record opens its own refresh. *)
val create :
  ?db:Mvcc.t -> ?seq:Timestamp.t -> ?resumed_at:int -> unit -> t

(** The local database copy. *)
val db : t -> Mvcc.t

(** [enqueue t record] appends a propagated record to the update queue
    (records must arrive in primary log order; the channel is FIFO). *)
val enqueue : t -> Wal.entry -> unit

(** [seq_dbsec t] is the primary commit timestamp of the latest refresh
    transaction committed here — the state of this copy "in terms of the
    primary database" (§4). *)
val seq_dbsec : t -> Timestamp.t

(** The primary txn id of the first refresh after whose commit this copy's
    {!Lsr_storage.Mvcc.digest} differed from its commit record's; [-1]
    while none has. *)
val diverged : t -> int

(** {2 Refresher (Algorithm 3.2)} *)

type refresher_outcome =
  | Started of int  (** opened the refresh transaction for this primary txn *)
  | Dispatched of int
      (** commit record consumed: this many updates handed to the refresh
          txn, which joined the pending queue's tail *)
  | Aborted of int  (** abort record consumed, carrying this many writes *)
  | Blocked_on_pending
      (** head is a start record but the pending queue is not empty *)
  | Idle  (** update queue empty *)

(** The update queue's head exists and is not a start record blocked on a
    non-empty pending queue. *)
val refresher_ready : t -> bool

(** One refresher iteration: examine the head of the update queue. *)
val refresher_step : t -> refresher_outcome

(** {2 Commit (Algorithm 3.3)} *)

(** [commit_head t] commits the refresh transaction at the head of the
    pending queue, pops it, advances [seq(DBsec)] to its primary commit ts
    and returns its primary txn id; [-1] when the pending queue is empty.
    Allocates nothing beyond the commit itself. *)
val commit_head : t -> int

(** The pending tail's primary commit ts ([seq(DBsec)] when empty): a
    refresh dispatched next heads the queue once [seq(DBsec)] reaches it. *)
val pending_tail : t -> Timestamp.t

(** {2 Introspection} *)

(** A dispatched refresh transaction waiting in the pending queue. *)
type applicator

(** The refresh transaction. Its start timestamp, issued locally when the
    start record was processed, lets tests verify relationships 1 and 2 of
    §3.1 directly; its pending writes are the shipped list itself. *)
val applicator_txn : applicator -> Mvcc.txn

(** The pending queue, head (the one that commits next) first. *)
val active_applicators : t -> applicator list

val update_queue_length : t -> int

(** Length of the pending queue ({!active_applicators}). *)
val pending_queue_length : t -> int
