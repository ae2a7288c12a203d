(** The primary site: executes every update transaction under its local
    strong-SI concurrency control and exposes its logical log to the
    propagator.

    Read-only transactions never run here (the router sends them to
    secondaries); update transactions forwarded from secondaries run to
    completion and leave a start and a commit-or-abort record in the
    primary's {!Lsr_storage.Wal}, the only log any site keeps. *)

open Lsr_storage

type t

(** A primary whose store interns its keys in [keys] ({!Mvcc.create}). *)
val create : ?keys:Mvcc.keys -> unit -> t

val db : t -> Mvcc.t
val wal : t -> Wal.t

(** [start t] begins an update transaction at the primary's latest
    committed state ({!Mvcc.latest_commit_ts} of {!db} just before). Only
    the replica-set core calls it ({!Replica_set.begin_update},
    {!Replica_set.retry}). *)
val start : t -> Mvcc.txn

(** [finish t ~force_abort txn] commits [txn] under first-committer-wins.
    [force_abort] aborts it instead (modelling the paper's [abort_prob]);
    the abort record still reaches the log. *)
val finish : t -> force_abort:bool -> Mvcc.txn -> Mvcc.commit_result
