(** Records propagated from the primary to the secondaries.

    These are exactly the messages of §3.2: start records are shipped as soon
    as they are seen in the primary's log (for propagation liveness), commit
    records carry the transaction's full update list and its primary commit
    timestamp, and abort records let secondaries discard the corresponding
    refresh transaction. *)

open Lsr_storage

type t =
  | Start_rec of { txn : int; start_ts : Timestamp.t }
  | Commit_rec of { txn : int; commit_ts : Timestamp.t; updates : Wal.update list }
  | Abort_rec of { txn : int; wasted : Wal.update list }
      (** [wasted] is empty under commit-time propagation; the eager
          ablation ships the aborted transaction's updates so secondaries
          can model executing and then discarding them. *)

val txn : t -> int

(** ["start"], ["commit"] or ["abort"] — the record tag alone, used by the
    fault channel to label flight events without rendering payloads. *)
val kind_name : t -> string

val pp : Format.formatter -> t -> unit
