(** Detectors for the SQL phenomena P0–P5 of the paper's appendix, over
    abstract operation traces.

    Traces record the values transactions observed and wrote, so detection is
    semantic: a trace is flagged only when the anomaly actually manifests
    (e.g. a lost update requires both transactions to commit). Tests use
    this in both directions — histories produced by the {!Lsr_storage.Mvcc}
    engine must be free of P0–P4, while hand-built textbook histories must be
    flagged, including the write skew (P5) that SI admits. *)

type op =
  | Begin of int
  | Read of { txn : int; key : string; value : string option }
      (** a read and the value it observed *)
  | Pred_read of { txn : int; pred : string; result : string list }
      (** a search-condition read and the keys it matched *)
  | Write of { txn : int; key : string; value : string option; preds : string list }
      (** a (buffered) write; [preds] are the predicates whose result set it
          changes when installed *)
  | Commit of int
  | Abort of int

type history = op list

(** A witnessing pair of transactions [(t1, t2)], numbered as in Definitions
    A.1–A.6 of the paper. *)
type witness = int * int

val dirty_writes : history -> witness list
(** P0: [t2] overwrote [t1]'s uncommitted write and both committed. *)

val dirty_reads : history -> witness list
(** P1: [t2] observed a value that was, at that point, only an uncommitted
    write of [t1]. *)

val fuzzy_reads : history -> witness list
(** P2: [t1] read the same key twice and saw different values because [t2]
    committed a write in between. *)

val phantoms : history -> witness list
(** P3: [t1] evaluated the same predicate twice with different result sets
    because [t2] committed a matching insert/delete in between. *)

val lost_updates : history -> witness list
(** P4: [t1] read a key, [t2] then committed a write to it, and [t1]
    (still using its earlier read) wrote the key and committed. *)

val write_skews : history -> witness list
(** P5: committed concurrent transactions with disjoint write sets, each
    reading something the other wrote. *)
