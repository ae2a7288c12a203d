(** Recorded global execution histories.

    The embedded system and the simulator both append one record per finished
    transaction; {!Watchdog.replay} then decides mechanically whether the
    history is weak SI, strong session SI, or strong SI (Definitions 2.1
    and 2.2), and names the witnessing transaction inversions when it is
    not.

    Two orders coexist in a record:
    - {e wall order} ([first_op], [finished]): a global, monotonically
      increasing event counter capturing the real submission/completion order
      across all sites — the "executes after" of the definitions;
    - {e snapshot order} ([snapshot], [commit_ts]): primary commit
      timestamps, i.e. positions in the sequence of database states
      [S^0, S^1, ...].

    The history is the largest owner of memory in a long embedded run, so
    it is kept as {!Lsr_storage.Column}s ({!t}), never copied on append,
    and shares what its pointers reach: each key read is the key
    dictionary's copy ({!Lsr_storage.Mvcc.stored_key}), each value the very
    option the store returned, and [writes] the list the commit installed.
    A running transaction's reads accumulate in a {!reads} buffer, which
    {!Replica_set} hands to the watchdog's end hooks and then {!add}s.
    {!transactions} builds records, for tests and tools. On an embedded
    run of the Table 1 mix ([test/cli/history_memory]) the history owns
    29.3 words per transaction beyond what the stores hold (29.7 while a
    read of a key its site had not installed yet kept the caller's string): 37.8 as a list
    of records with two read arrays each, 100.6 with each read a list cell
    and a pair holding the caller's key string. *)

open Lsr_storage

type kind =
  | Read_only
  | Update

(** The freshness fence a read-only transaction ran under, as recorded in
    the history so {!Watchdog.replay} can audit that the snapshot actually
    honoured it. [read_at] is the virtual time at which the fence was resolved
    (relevant to [Max_age], whose horizon is a function of that instant). *)
type fence_claim = {
  claim : Session.fence;
  read_at : float;
}

(** The history itself, as columns. Transaction [i < length], the [i]th
    added, is slot [i] of every column but [keys] and [values], and its
    reads are their slots [read_stop (i - 1)] (0 for the first) to
    [read_stop i - 1]. [commit] holds a committed update's timestamp,
    {!aborted} or {!read_only}. *)
type t = private {
  mutable events : int;
  mutable ids : int;
  mutable length : int;
  id : int Column.t;
  first_op : int Column.t;
  finished : int Column.t;
  snapshot : Timestamp.t Column.t;
  commit : int Column.t;
  read_stop : int Column.t;
  session : string Column.t;
  site : string Column.t;
  fence : fence_claim option Column.t;
  writes : Wal.update list Column.t;
  keys : string Column.t;
  values : string option Column.t;
}

(** The [commit] slots of an aborted update and of a read-only one. *)
val aborted : int
val read_only : int

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

val create : unit -> t

(** [tick t] advances and returns the global event counter. *)
val tick : t -> int

(** [now t] is the current value of the event counter, without advancing
    it. The embedded system uses it as its commit clock's time axis. *)
val now : t -> int

(** [fresh_id t] allocates a history-unique transaction id. *)
val fresh_id : t -> int

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

(** [add t ~key ... ~commit ... r] appends a finished transaction whose
    reads are the buffer's, each key replaced by [key] of it. [commit] is
    its commit timestamp, {!aborted} or {!read_only}. *)
val add :
  t -> key:(string -> string) -> id:int -> session:string -> site:string ->
  first_op:int -> finished:int -> snapshot:Timestamp.t -> commit:int ->
  writes:Wal.update list -> fence:fence_claim option -> reads -> unit

(** [load_reads t i r] empties [r] and serves it transaction [i]'s reads. *)
val load_reads : t -> int -> reads -> unit

(** [fold_reads txn ~init ~f] folds [f] over [txn]'s reads, oldest first. *)
val fold_reads :
  txn -> init:'acc -> f:('acc -> string -> string option -> 'acc) -> 'acc

(** The transactions as records, in the order added (the core adds in
    completion order). *)
val transactions : t -> txn list

val length : t -> int
val pp_txn : Format.formatter -> txn -> unit
