(** The primary site: executes every update transaction under its local
    strong-SI concurrency control and exposes its logical log to the
    propagator.

    Read-only transactions never run here (the router sends them to
    secondaries); update transactions forwarded from secondaries run to
    completion and leave start / update / commit-or-abort records in the
    primary's {!Lsr_storage.Wal}, the only log any site keeps. *)

open Lsr_storage

type t

(** [commit_log]: see {!Mvcc.create}. *)
val create : ?commit_log:bool -> unit -> t

val db : t -> Mvcc.t
val wal : t -> Wal.t

(** Result of an update transaction at the primary. *)
type 'a outcome =
  | Committed of {
      value : 'a;
      txn : int;
          (** the primary MVCC transaction id — the trace id every
              propagated record (and flight event) carries *)
      commit_ts : Timestamp.t;
      snapshot : Timestamp.t;
      writes : Wal.update list;  (** the effective writeset installed *)
    }
  | Aborted of Mvcc.abort_reason

(** [execute t body] runs [body db txn] inside a fresh transaction and
    commits it. [force_abort] aborts at commit instead (modelling the
    paper's [abort_prob]); the abort record still reaches the log. [snapshot]
    in the outcome is the primary commit timestamp of the state the
    transaction saw. Exceptions from [body] abort the transaction and are
    re-raised. *)
val execute : t -> ?force_abort:bool -> (Mvcc.t -> Mvcc.txn -> 'a) -> 'a outcome
