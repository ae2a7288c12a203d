(** Mechanical verification of the paper's correctness criteria over a
    recorded {!History}, plus the completeness property of Theorem 3.1 over
    a pair of database instances.

    An {e inversion} witnesses a violation of Definition 2.1/2.2: a committed
    transaction [t1] whose commit precedes the first operation of [t2] (in
    wall order), yet [t2] saw a database state older than the one [t1]
    produced (or, for a read-only [t1], older than the one [t1] observed —
    the case-4 requirement of Theorem 4.1 that snapshots never move
    backwards).

    Every check here is polynomial in the history size — the checker runs
    after each simulation over histories with up to millions of
    transactions, so no routine may enumerate candidate orders or walk a
    version chain per read. [analyze] sorts the committed transactions once
    by first operation and once by finish, and one wall-order sweep yields
    the inversions at every level and the fence audit ([inversions] and
    [check_fences] are projections of it); [check_weak_si] is one more
    sorted sweep. All of it is O(n log n) plus O(R) over recorded reads, in
    O(n + K) extra words for K written keys. [check_completeness] compares
    states key by key and materializes none. [serialization_cycle] builds
    the MVSG black-box style (see below) in O(E + R log V) and detects
    cycles with one iterative DFS. *)

open Lsr_storage

type inversion = { earlier : History.txn; later : History.txn }

val pp_inversion : Format.formatter -> inversion -> unit

(** All inversions in wall order. [same_session_only] restricts to pairs
    with equal session labels; [earlier_updates_only] restricts the earlier
    transaction to committed updates — the PCSI requirement, which does not
    order read-only transactions against each other. *)
val inversions :
  ?same_session_only:bool -> ?earlier_updates_only:bool -> History.t ->
  inversion list

(** [is_strong_si h] — no inversion between any pair (Definition 2.1). *)
val is_strong_si : History.t -> bool

(** [is_strong_session_si h] — no inversion within any session
    (Definition 2.2). *)
val is_strong_session_si : History.t -> bool

(** [check_weak_si h] verifies that the history is (global) weak SI: every
    committed transaction observed a transaction-consistent snapshot
    (aborted updates are not judged, like the {!Watchdog}). Concretely, each
    recorded read must return the value of the key in the primary state
    sequence at the transaction's snapshot timestamp. Reads of a key the
    transaction itself wrote are skipped: {!History} does not order a
    transaction's reads against its own writes, so such a read may return
    either the snapshot's value or the pending write. Returns the list of
    violations (empty = weak SI holds). *)
val check_weak_si : History.t -> string list

(** {2 Serializability (§7, Fekete et al)}

    SI is weaker than serializability: write skew produces histories that
    are SI yet have a cycle in the multi-version serialization graph. The
    graph is built from recorded reads/writes and snapshots:
    - ww: consecutive writers of a key, in commit order;
    - wr: the writer of the version a transaction read, to the reader;
    - rw (anti-dependency): a reader of a version to the writer of the
      {e next} version of that key.

    Reads of keys the transaction itself wrote are ignored
    (read-your-writes).

    Because SI pins every read to the version visible at the reader's
    snapshot, all three edge kinds are determined directly from the per-key
    committed-writer chains (binary search per read) — the polynomial-time
    black-box SI-checking construction of Huang et al., with none of the
    exponential search a general serializability check needs. *)

(** [serialization_cycle h] is a dependency cycle (as history transaction
    ids, in order) when one exists. *)
val serialization_cycle : History.t -> int list option

(** [is_serializable h] — no cycle in the serialization graph. *)
val is_serializable : History.t -> bool

(** [check_completeness ~primary ~secondary] verifies Theorem 3.1 on actual
    database instances: the sequence of committed states of [secondary] is a
    prefix of the primary's — same writesets installed in the same order —
    and the final secondary state equals the corresponding primary state
    [S^i_p] (see {!same_state}). Returns [Error message] on the first
    divergence. *)
val check_completeness : primary:Mvcc.t -> secondary:Mvcc.t -> (unit, string) result

(** [same_state expected ~at actual] — [expected]'s state as of [at] equals
    [actual]'s latest committed state. Compares key by key with
    {!Mvcc.fold_visible} and {!Mvcc.read_at}; allocates nothing per key. *)
val same_state : Mvcc.t -> at:Timestamp.t -> Mvcc.t -> bool

(** [check_fences ?clock h] audits every committed fenced read: its recorded
    snapshot must actually satisfy its {!History.fence_claim}. [Exact] is
    checked against the fence timestamp, [Session_seq] against the session's
    wall-order fence floor (earlier committed updates and earlier
    [Session_seq]-fenced reads of the same session), and [Max_age] against
    the commit-visibility horizon replayed from [clock] at
    [read_at - age] — a [Max_age] claim with no [clock] is itself reported
    as a violation. Returns violation descriptions (empty = all fences
    honoured). *)
val check_fences : ?clock:Session.clock -> History.t -> string list

(** Full report for a finished run: weak-SI violations, inversions at each
    strictness level, and fence-audit violations. *)
type report = {
  weak_si_violations : string list;
  inversions_all : inversion list;  (** any pair (strong SI) *)
  inversions_in_session : inversion list;  (** same session (strong session SI) *)
  inversions_after_update : inversion list;
      (** same session, earlier transaction is an update (PCSI) *)
  fence_violations : string list;
      (** committed fenced reads whose snapshot broke their fence *)
}

(** [analyze ?clock h] — [clock] is the primary's commit clock, needed to
    audit [Max_age] fences (see {!check_fences}). *)
val analyze : ?clock:Session.clock -> History.t -> report

(** [satisfies guarantee report] — does the run meet the advertised
    guarantee? [Weak] requires weak SI only; [Prefix_consistent] additionally
    no in-session inversions whose earlier transaction is an update;
    [Strong_session] no in-session inversions at all; [Strong] no inversions
    anywhere. Fence violations fail every guarantee — a fence is a per-read
    contract independent of the ambient level. *)
val satisfies : Session.guarantee -> report -> bool
