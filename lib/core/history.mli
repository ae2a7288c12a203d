(** Recorded global execution histories.

    The embedded system and the simulator both append one record per finished
    transaction; {!Checker} then decides mechanically whether the history is
    weak SI, strong session SI, or strong SI (Definitions 2.1 and 2.2), and
    exhibits the witnessing transaction inversions when it is not.

    Two orders coexist in a record:
    - {e wall order} ([first_op], [finished]): a global, monotonically
      increasing event counter capturing the real submission/completion order
      across all sites — the "executes after" of the definitions;
    - {e snapshot order} ([snapshot], [commit_ts]): primary commit
      timestamps, i.e. positions in the sequence of database states
      [S^0, S^1, ...].

    A record keeps its reads flat, in two arrays of the same length: the
    keys read and the values observed, oldest first. The history is the
    largest owner of memory in a long embedded run, so a read costs one
    slot in each array (2 words), and a transaction two array headers when
    it read anything (a read-less one shares the empty arrays). The strings
    are shared, not copied: {!Replica_set} records each key as the store's
    own copy of it ({!Lsr_storage.Mvcc.stored_key} of the store the read
    ran against: a secondary's for a read-only transaction, the primary's
    for an update), and each value as the very option the store returned.
    A running transaction's reads accumulate in a {!reads} buffer, the one
    place a read exists before its record does: {!Replica_set} keeps one
    per transaction, hands it to the watchdog's end hooks, and builds the
    record's arrays from it ({!recorded}). Read a record's reads with
    {!fold_reads}. On an embedded run of the Table 1 mix
    ([test/cli/history_memory]) the history owns 37.8 words per
    transaction beyond what the stores hold; with each read a list cell
    and a pair holding the caller's key string it owned 100.6. *)

open Lsr_storage

type kind =
  | Read_only
  | Update

(** The freshness fence a read-only transaction ran under, as recorded in
    the history so {!Checker} can audit that the snapshot actually honoured
    it. [read_at] is the virtual time at which the fence was resolved
    (relevant to [Max_age], whose horizon is a function of that instant). *)
type fence_claim = {
  claim : Session.fence;
  read_at : float;
}

type txn = {
  id : int;  (** unique within the history *)
  session : string;
  kind : kind;
  site : string;  (** where the transaction executed *)
  first_op : int;  (** wall order of the transaction's first operation *)
  finished : int;  (** wall order of its commit *)
  snapshot : Timestamp.t;
      (** primary commit timestamp of the database state the transaction saw *)
  commit_ts : Timestamp.t option;
      (** primary commit timestamp, for committed update transactions *)
  read_keys : string array;  (** the keys read, oldest first *)
  read_values : string option array;
      (** [read_values.(i)] is the value the read of [read_keys.(i)] observed *)
  writes : Wal.update list;  (** effective writes, for committed updates *)
  fence : fence_claim option;
      (** the freshness fence the read ran under, if any *)
}

type t

val create : unit -> t

(** [tick t] advances and returns the global event counter. *)
val tick : t -> int

(** [now t] is the current value of the event counter, without advancing
    it. The embedded system uses it as its commit clock's time axis. *)
val now : t -> int

(** [fresh_id t] allocates a history-unique transaction id. *)
val fresh_id : t -> int

val add : t -> txn -> unit

(** The reads a running transaction has been served so far, oldest first:
    the first [count] slots of [keys] and [values]. *)
type reads = {
  mutable count : int;
  mutable keys : string array;
  mutable values : string option array;
}

(** An empty buffer; it allocates its arrays at the first {!serve}. *)
val reads : unit -> reads

(** [serve r key value] appends a read of [key] that observed [value]. *)
val serve : reads -> string -> string option -> unit

(** [recorded ~key r] is the [(read_keys, read_values)] pair of a record
    that read [r], each key replaced by [key] of it: arrays of exactly
    [r.count] slots, or the shared empty arrays. *)
val recorded :
  key:(string -> string) -> reads -> string array * string option array

(** [fold_reads txn ~init ~f] folds [f] over [txn]'s reads, oldest first. *)
val fold_reads :
  txn -> init:'acc -> f:('acc -> string -> string option -> 'acc) -> 'acc

(** Transactions in completion order. *)
val transactions : t -> txn list

val length : t -> int
val pp_txn : Format.formatter -> txn -> unit
