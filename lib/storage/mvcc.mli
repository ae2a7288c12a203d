(** Multiversion key-value storage engine with local {e strong} snapshot
    isolation.

    This is the "autonomous database management system with a local
    concurrency controller that guarantees strong SI and is deadlock-free"
    that the paper assumes at every site (§3):

    - each transaction's start timestamp equals the latest committed state at
      the moment it starts, so a transaction always sees the newest snapshot
      (strong SI, Definition 2.1);
    - writers never block: write-write conflicts are resolved at commit by
      the first-committer-wins rule, so there are no deadlocks;
    - a transaction reads its own uncommitted writes;
    - every update transaction leaves start / update / commit (or abort)
      records in the site's logical {!Wal}.

    The engine also exposes snapshot reconstruction ([state_at],
    [fold_visible]) used to check the paper's completeness property
    (Theorem 3.1, [S^i_p = S^i_s]).

    Each key is one cell that is also its hash-bucket node and holds the
    newest version inline, with older versions in a list behind it. A read
    at or above a key's newest commit touches the bucket slot, the cell and
    the key bytes, and a read of a key the transaction did not write
    allocates nothing ([read], [read_at]). A refresh re-executes every
    primary update at every secondary, so every per-key operation here is
    paid once per database. *)

type t
type txn

type abort_reason =
  | Write_conflict of string
      (** First-committer-wins: a concurrent committed transaction also wrote
          this key. *)
  | Forced  (** Abort requested by the caller (e.g. simulated failures). *)

type commit_result =
  | Committed of Timestamp.t
  | Aborted of abort_reason

val create : ?name:string -> unit -> t
val name : t -> string

(** The site's logical log. *)
val wal : t -> Wal.t

(** [begin_txn t] starts a transaction whose snapshot is the latest committed
    state (strong SI start-timestamp assignment). *)
val begin_txn : t -> txn

(** [begin_txn_at t ~snapshot] starts a transaction whose start timestamp is
    chosen in the past — the weak-SI freedom of §2.1 ("the system can choose
    start(T) to be any time less than or equal to the actual start time"),
    and the basis of the time-travel queries of the paper's related work.
    The transaction sees the committed state as of [snapshot]. It may write:
    first-committer-wins then aborts it if any written key was committed
    after [snapshot] (generalized SI).
    @raise Invalid_argument when [snapshot] is in the future. *)
val begin_txn_at : t -> snapshot:Timestamp.t -> txn

val txn_id : txn -> int

(** Start timestamp assigned by the local concurrency control. *)
val start_ts : txn -> Timestamp.t

(** [read t txn key] is the value visible in [txn]'s snapshot, its own
    uncommitted write taking precedence (read-your-writes). *)
val read : t -> txn -> string -> string option

(** [write t txn key value] buffers an update ([None] deletes). Never
    blocks. @raise Invalid_argument if [txn] is no longer active. *)
val write : t -> txn -> string -> string option -> unit

(** [commit t txn] applies the first-committer-wins rule: if any key written
    by [txn] was also written by a transaction that committed after [txn]
    started, [txn] aborts with [Write_conflict]; otherwise its writes are
    installed atomically under a fresh commit timestamp. *)
val commit : t -> txn -> commit_result

(** [abort t txn] discards the transaction's buffered writes. *)
val abort : t -> txn -> unit

(** [end_read t txn] finishes a read-only transaction: no state is
    installed, no commit record is logged, and the commit counter does not
    advance (a read-only transaction creates no new database state).
    @raise Invalid_argument if the transaction wrote anything. *)
val end_read : t -> txn -> unit

(** Buffered writes of an active transaction, in write order (later writes to
    the same key supersede earlier ones). *)
val pending_writes : txn -> Wal.update list

(** Keys written so far by an active transaction, in first-write order.
    Needed by scans that must see the transaction's own inserts of keys that
    do not yet exist in the committed store. *)
val written_keys : txn -> string list

(** {2 Snapshot inspection} *)

(** Timestamp of the most recent commit ([Timestamp.zero] if none). *)
val latest_commit_ts : t -> Timestamp.t

(** Number of committed update transactions. *)
val commit_count : t -> int

(** [read_at t ts key] reads [key] in the snapshot as of timestamp [ts]. *)
val read_at : t -> Timestamp.t -> string -> string option

(** [state_at t ts] is the full committed state visible at [ts], as a sorted
    association list (deleted keys omitted). *)
val state_at : t -> Timestamp.t -> (string * string) list

(** Latest committed state (= [state_at t (latest_commit_ts t)]). *)
val committed_state : t -> (string * string) list

(** [fold_visible t ~at ~init ~f] folds [f] over the bindings visible as of
    [at] (deleted keys omitted), in no particular order, allocating nothing
    per binding: with [read_at], states compare key by key. *)
val fold_visible :
  t -> at:Timestamp.t -> init:'acc -> f:('acc -> string -> string -> 'acc) -> 'acc

(** [fold_keys t ~prefix ~init ~f] folds over every key ever written with the
    given prefix, in ascending lexicographic order (visibility is up to the
    caller via [read]). Costs O(log n + k) for k matching keys, not O(n).
    The ordered index is built lazily, so installs never pay for it: the
    first scan after m keys were first installed also pays O(m log n) to
    fold them in. *)
val fold_keys : t -> prefix:string -> init:'acc -> f:('acc -> string -> 'acc) -> 'acc

(** [keys_from t start] is the ascending sequence of every key ever written
    that is [>= start]. Backs index range seeks: O(log n) to position, O(1)
    per element, plus the lazy index's O(m log n) catch-up described at
    {!fold_keys}. The sequence is a persistent snapshot of the keys present
    when it was created (safe to re-force). *)
val keys_from : t -> string -> string Seq.t

(** {2 Maintenance} *)

(** [vacuum t ~before] reclaims versions invisible to every snapshot taken
    at or after [before]: per key, the newest version with commit timestamp
    [<= before] is kept (it is the version visible at [before]), anything
    older is dropped. Reads at timestamps [>= before] are unaffected;
    [state_at]/[read_at] below [before] become unreliable. Returns the
    number of versions reclaimed.

    Costs O(m + r) for the m keys holding two or more versions and the r
    versions reclaimed, not O(store): single-version keys are never
    visited, and a chain that loses nothing is left as it is, so a vacuum
    with nothing to reclaim allocates nothing. *)
val vacuum : t -> before:Timestamp.t -> int

(** Number of stored versions across all keys (for reclamation tests). *)
val version_count : t -> int

(** [serialize t] encodes the latest committed state — not the version
    history — as an opaque string: the "copy of the primary database" of
    §3.4 used to reseed failed secondaries. *)
val serialize : t -> string

(** [restore ?name data] is a fresh database whose single initial commit
    installs a serialized state.
    @raise Failure on malformed input. *)
val restore : ?name:string -> string -> t

(** Commit timestamps in commit order, oldest first (for checkers). *)
val commit_history : t -> Timestamp.t list

(** Commit timestamps with the update lists installed, oldest first. The
    completeness checker compares these sequences across sites. *)
val commits_with_updates : t -> (Timestamp.t * Wal.update list) list
