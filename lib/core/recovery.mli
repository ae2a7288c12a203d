(** Secondary crash recovery from a {e stale} backup plus log replay — the
    §3.4 path where the failed site does not get a fresh copy of the current
    primary state but rebuilds from an older checkpoint:

    + restore the database copy from a serialized backup
      ({!Lsr_storage.Mvcc.serialize}) taken at some earlier primary
      timestamp;
    + reseed [seq(DBsec)] to that timestamp ({!Lsr_core.Secondary.reseed_seq},
      §4's dummy-transaction rule applied at backup time);
    + replay the primary's log from the beginning (a fresh
      {!Lsr_core.Propagation}), discarding transactions already
      reflected in the backup, and drain the refresh machinery.

    The replayed refresh transactions re-execute in primary timestamp order,
    so Theorem 3.1's ordering relationships hold over the replay and the
    recovered copy converges to the same state and [seq(DBsec)] as a replica
    that never crashed. Replay needs the whole log: see {!restore}. *)

open Lsr_storage

(** A serialized primary state together with the primary commit timestamp it
    reflects. *)
type backup = { state : string; ts : Timestamp.t }

(** [backup primary] checkpoints the primary's current committed state. *)
val backup : Primary.t -> backup

(** [replay_filter ~after records] keeps exactly the records a recovering
    site must re-execute: start/commit pairs of transactions whose commit
    timestamp exceeds [after]. Commits at or below [after] are already in
    the backup; aborted and still-in-flight transactions install nothing. *)
val replay_filter : after:Timestamp.t -> Wal.entry list -> Wal.entry list

(** [restore ~primary b] rebuilds a secondary from backup [b] by replaying
    the primary's whole log through a fresh propagator and draining. The
    result has the database state and [seq(DBsec)] of a replica that
    consumed the full log.
    @raise Invalid_argument when the log has been truncated (e.g. by
    [System.compact]): replay would skip records, so a backup older than
    the truncation point cannot be recovered from. *)
val restore : ?name:string -> primary:Primary.t -> backup -> Secondary.t
