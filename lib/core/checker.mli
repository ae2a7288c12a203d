(** Mechanical verification of the paper's correctness criteria over a
    recorded {!History}, plus a state comparison for recovered secondaries
    (each refresh commit checks completeness, Theorem 3.1:
    {!Secondary.diverged}).

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
    the inversions at every level and the fence audit; [check_weak_si] is
    one more sorted sweep. All of it is O(n log n) plus O(R) over recorded
    reads, in O(n + K) extra words for K written keys. [same_state]
    compares states key by key and materializes none. *)

open Lsr_storage

type inversion = { earlier : History.txn; later : History.txn }

val pp_inversion : Format.formatter -> inversion -> unit

(** [check_weak_si h] verifies that the history is (global) weak SI: every
    committed transaction observed a transaction-consistent snapshot
    (aborted updates are not judged, like the {!Watchdog}). Concretely, each
    recorded read must return the value of the key in the primary state
    sequence at the transaction's snapshot timestamp. Reads of a key the
    transaction itself wrote are skipped: {!History} does not order a
    transaction's reads against its own writes, so such a read may return
    either the snapshot's value or the pending write. A recorded key is the
    store's own copy of the key read ({!Mvcc.stored_key}), [String.equal]
    to the caller's, so the verdict is the one the caller's keys would
    give; the sweep reads each record's reads with {!History.fold_reads}.
    Returns the list of violations (empty = weak SI holds). *)
val check_weak_si : History.t -> string list

(** [same_state expected ~at actual] — [expected]'s state as of [at] equals
    [actual]'s latest committed state. Compares key by key with
    {!Mvcc.fold_visible} and {!Mvcc.read_at}; allocates nothing per key. *)
val same_state : Mvcc.t -> at:Timestamp.t -> Mvcc.t -> bool

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
    audit [Max_age] fences (see [fence_violations]). *)
val analyze : ?clock:Session.clock -> History.t -> report

(** [satisfies guarantee report] — does the run meet the advertised
    guarantee? [Weak] requires weak SI only; [Prefix_consistent] additionally
    no in-session inversions whose earlier transaction is an update;
    [Strong_session] no in-session inversions at all; [Strong] no inversions
    anywhere. Fence violations fail every guarantee — a fence is a per-read
    contract independent of the ambient level. *)
val satisfies : Session.guarantee -> report -> bool

(** [forbidden_inversions guarantee report] is the report's inversion list
    at {!Session.forbidden_level} [guarantee] ([[]] for [Weak]). *)
val forbidden_inversions : Session.guarantee -> report -> inversion list
