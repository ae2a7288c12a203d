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
    - a store given a logical {!Wal} (only the primary's is) logs each
      transaction's start, then its commit record carrying the very list
      the commit installed and the store's {!digest} after it, or its abort
      record; a write logs nothing.

    The engine also exposes snapshot reconstruction ([state_at],
    [fold_visible]) and a running {!digest} of the writesets installed,
    which checks the paper's completeness property (Theorem 3.1,
    [S^i_p = S^i_s]) at each refresh commit.

    A key is a number: the stores of one replica set share one key
    dictionary ({!keys}), which holds each key's string once, at a dense
    id. A numbered name ({!key_number}) finds its id in a column indexed
    by its number, any other behind an open-addressed table of ints. A key
    enters it when some store first installs it. Each store is three
    {!Column}s over the ids: newest commit timestamp (0 for a key never
    installed here), newest value, and the chain of older versions, one
    block each. A store keeps no ordered key index until its first scan
    ({!fold_keys}, {!keys_from}); the scans and {!fold_visible} see only
    the keys it installed. A read of a key the transaction did not write
    allocates nothing ([read], [read_at]). A refresh installs every
    primary update at every secondary, so every per-key install here is
    paid once per database; a refresh transaction takes its writeset whole
    ({!write_all}), so buffering and checking it cost one walk of the
    shipped list, with no per-update allocation. *)

type t
type txn

(** A key dictionary, shared by the stores holding copies of one database. *)
type keys

type abort_reason =
  | Write_conflict of string
      (** First-committer-wins: a concurrent committed transaction also wrote
          this key. *)
  | Forced  (** Abort requested by the caller (e.g. simulated failures). *)

type commit_result =
  | Committed of Timestamp.t
  | Aborted of abort_reason

(** An empty key dictionary. *)
val keys : unit -> keys

(** [key_name n] is the name of key number [n], the same string as
    [Printf.sprintf "item:%06d" n]. For [0 <= n < 1_000_000] it allocates
    only the eleven-byte string. *)
val key_name : int -> string

(** [key_number name] is [n] when [name] is [key_name n] with
    [0 <= n < 2^20], a numbered name, and [-1] for any other name.
    Allocates nothing. *)
val key_number : string -> int

(** An empty store, digest [0], that logs to [log] (without it, nowhere)
    and interns its keys in [keys] (without it, in a private one). *)
val create : ?log:Wal.t -> ?keys:keys -> unit -> t

(** The keys in [t]'s dictionary: each key any store sharing it installed. *)
val key_count : t -> int

(** The log given at {!create}. @raise Invalid_argument without one. *)
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

val next_txn_id : t -> int  (** the id the next transaction gets *)

(** Start timestamp assigned by the local concurrency control. *)
val start_ts : txn -> Timestamp.t

(** [read t txn key] is the value visible in [txn]'s snapshot, its own
    uncommitted write taking precedence (read-your-writes). A transaction
    with up to 16 buffered writes scans them, allocating nothing; a longer
    one builds a table of its writes at its first read. *)
val read : t -> txn -> string -> string option

(** [read_number t txn n] is [read t txn (key_name n)], for [n >= 0].
    When [txn] has written nothing, a numbered name is found through its
    number, with no hash, and a number no store installed reads [None];
    neither allocates. *)
val read_number : t -> txn -> int -> string option

(** [number_key t n] is [stored_key t (key_name n)], building the name
    only when no store installed it. *)
val number_key : t -> int -> string

(** [stored_key t key] is the dictionary's copy of [key]: the string the
    first store sharing [t]'s dictionary to install [key] held, which is
    [String.equal] to [key], or [key] itself when no such store installed
    it. A record that keeps it, as a run's history does for every read and
    {!write} for every update, shares the dictionary's string instead of
    keeping the caller's copy alive. Allocates nothing. *)
val stored_key : t -> string -> string

(** [write t txn key value] buffers an update ([None] deletes). The update
    holds {!stored_key} [t key], so what the commit installs, logs and
    keeps shares the dictionary's string for a key it already holds. Never
    blocks. @raise Invalid_argument if [txn] is no longer active. *)
val write : t -> txn -> string -> string option -> unit

(** [write_all t txn updates] buffers a whole writeset at once: [updates]
    must hold one update per key, as {!Wal.squash} returns it. The list is
    kept as it is, with no per-update work and no new record: {!commit}
    checks first-committer-wins by walking it and installs it;
    {!pending_writes} returns it.
    This is how a refresh transaction takes a propagated commit's updates.
    Reads still see these writes, and a later {!write} may follow.
    @raise Invalid_argument if [txn] is no longer active or has written. *)
val write_all : t -> txn -> Wal.update list -> unit

(** [commit t txn] applies the first-committer-wins rule: if any key written
    by [txn] was also written by a transaction that committed after [txn]
    started, [txn] aborts with [Write_conflict], naming the first such key
    in first-write order; otherwise its writes are installed atomically
    under a fresh commit timestamp. With a log, the commit record carries
    the installed list itself, the one {!pending_writes} returns, and the
    {!digest} after the install. *)
val commit : t -> txn -> commit_result

(** [abort t txn] discards the transaction's buffered writes. With a log,
    the abort record counts them (every write, repeats included). *)
val abort : t -> txn -> unit

(** [end_read t txn] finishes a read-only transaction: no state is
    installed, no commit record is logged, and the commit counter does not
    advance (a read-only transaction creates no new database state).
    @raise Invalid_argument if the transaction wrote anything. *)
val end_read : t -> txn -> unit

(** Buffered writes of an active transaction, one update per key in
    first-write order, each with the key's last value ({!Wal.squash} of the
    writes, or the list given to {!write_all}); after a commit, the updates
    it installed. *)
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

(** Every writeset installed, in order, folded into one int without
    allocating: each update's key and value hashes (a constant for a
    delete), then a commit boundary. Equal on two stores that installed
    the same writesets in the same order. *)
val digest : t -> int

(** [read_at t ts key] reads [key] in the snapshot as of timestamp [ts]. *)
val read_at : t -> Timestamp.t -> string -> string option

(** [state_at t ts] is the full committed state visible at [ts], as a sorted
    association list (deleted keys omitted). *)
val state_at : t -> Timestamp.t -> (string * string) list

(** Latest committed state (= [state_at t (latest_commit_ts t)]). *)
val committed_state : t -> (string * string) list

(** [same_state expected ~at actual] — [expected]'s state as of [at] equals
    [actual]'s latest committed state. Compares key by key with
    {!fold_visible} and {!read_at}; allocates nothing per key. *)
val same_state : t -> at:Timestamp.t -> t -> bool

(** [fold_visible t ~at ~init ~f] folds [f] over the bindings visible as of
    [at] (deleted keys and keys never installed in [t] omitted), in no
    particular order, allocating nothing per binding: with [read_at],
    states compare key by key. *)
val fold_visible :
  t -> at:Timestamp.t -> init:'acc -> f:('acc -> string -> string -> 'acc) -> 'acc

(** [fold_keys t ~prefix ~init ~f] folds over every key ever installed in
    [t] with the given prefix, in ascending lexicographic order (visibility
    is up to the caller via [read]). Costs O(log n + k) for k matching
    keys, not O(n), and matching a key against the prefix allocates
    nothing. The ordered
    index is built lazily, so installs never pay for it: the store's first
    scan builds it from the installed ids in O(n log n), and every later scan after
    m keys were first installed pays O(m log n) to fold them in. *)
val fold_keys : t -> prefix:string -> init:'acc -> f:('acc -> string -> 'acc) -> 'acc

(** [keys_from t start] is the ascending sequence of every key ever
    installed in [t] that is [>= start]. Backs index range seeks: O(log n)
    to position, O(1) per element, plus the lazy index's first build or
    catch-up described at {!fold_keys}. The sequence is a persistent
    snapshot of the keys present when it was created (safe to re-force). *)
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
    visited, a chain that loses nothing is left as it is, and a chain that
    loses versions is cut by one write, which allocates nothing. Only the
    list of multi-version keys is rebuilt when a vacuum reclaims anything,
    so a vacuum with nothing to reclaim allocates nothing. *)
val vacuum : t -> before:Timestamp.t -> int

(** Number of stored versions across all keys (for reclamation tests). *)
val version_count : t -> int

(** [serialize t] encodes the latest committed state — not the version
    history — and the {!digest} as an opaque string: the "copy of the
    primary database" of §3.4 used to reseed failed secondaries. *)
val serialize : t -> string

(** Raised by {!restore} on malformed input, naming the fault. *)
exception Malformed_backup of string

(** [restore ?keys data] is a fresh database ({!create} without a log)
    whose single initial commit installs a serialized state and whose
    digest is the serialized one. Restored into the dictionary of the store
    it copies, it adds no key and holds that store's key strings.
    @raise Malformed_backup on malformed input. *)
val restore : ?keys:keys -> string -> t
