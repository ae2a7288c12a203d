(** Built-in template workloads: the TPC-W-derived bookstore mix the
    examples and the simulator's narrative use, plus the two calibration
    workloads the analyzer is validated against — the classic write-skew
    pair (must be flagged) and a pure read-only + disjoint-writer mix (must
    come back clean) — and the symbolic {!Lsr_workload.Txn_gen} pair. *)

(** Read-heavy mix with exactly one inversion-prone reader ([read_inbox],
    raced by [post_message]) and two readers of never-written regions: the
    showcase for mixed per-template fence assignment ({!Plan}). *)
val fence_mix : unit -> Template.t list

(** Every built-in workload, keyed by name ([tpcw], [write_skew],
    [disjoint], [txn_gen], [fence_mix]), in report order. *)
val workloads : unit -> (string * Template.t list) list

(** [find name] is the workload of that name. *)
val find : string -> Template.t list option
