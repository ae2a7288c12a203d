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

(** An update transaction between {!start} and {!finish}. *)
type txn = {
  mvcc : Mvcc.txn;  (** the primary MVCC transaction the body runs in *)
  snapshot : Timestamp.t;
      (** the primary commit timestamp of the state the transaction sees *)
}

(** [start t] begins an update transaction at the primary's latest
    committed state. *)
val start : t -> txn

(** [finish t txn value] commits [txn] under first-committer-wins.
    [force_abort] aborts it instead (modelling the paper's [abort_prob]);
    the abort record still reaches the log. [value] is handed back in
    [Committed]. *)
val finish : t -> ?force_abort:bool -> txn -> 'a -> 'a outcome

(** [execute t body] is {!start}, then [body db txn], then {!finish}: the
    synchronous form, for callers whose operations take no virtual time.
    Exceptions from [body] abort the transaction and are re-raised. *)
val execute : t -> ?force_abort:bool -> (Mvcc.t -> Mvcc.txn -> 'a) -> 'a outcome
