(** Serializability of a recorded {!Lsr_core.History} (§7, Fekete et al).

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
    exponential search a general serializability check needs. The graph is
    built in O(E + R log V) and cycles are detected with one iterative
    DFS. *)

(** [serialization_cycle h] is a dependency cycle (as history transaction
    ids, in order) when one exists. *)
val serialization_cycle : Lsr_core.History.t -> int list option
