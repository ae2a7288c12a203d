(** Serializable execution on top of strong SI — the ticket technique the
    paper's related work discusses (§7: Schenkel et al use tickets to order
    update transactions; Fekete et al show that introducing write conflicts
    makes SI executions serializable).

    Every guarded update transaction reads and rewrites a single {e ticket}
    key. Two concurrent guarded transactions therefore always have a
    write-write conflict, so the first-committer-wins rule serializes them:
    the committed guarded updates form a total order, SI's write skew becomes
    impossible among them, and the resulting histories are one-copy
    serializable (read-only transactions see committed prefixes).

    The price is concurrency — exactly the trade-off the paper leverages in
    the other direction. [examples/serializable.ml] shows write skew under
    plain SI and its prevention with tickets. *)

open Lsr_storage

(** [guard ?ticket db txn] makes [txn] conflict with every other guarded
    transaction: it reads the ticket and writes it back incremented. Call it
    once, at any point before commit. The ticket key defaults to
    ["$ticket$"]; choose another to shard the serialization domain (e.g. one
    ticket per table). *)
val guard : ?ticket:string -> Mvcc.t -> Mvcc.txn -> unit

(** [run ?ticket ?max_attempts db body] executes [body] in a guarded
    transaction, retrying (with a fresh snapshot) when first-committer-wins
    aborts it. Returns the body's result and the commit timestamp, or
    [Error attempts] after exhausting [max_attempts] (default 10). *)
val run :
  ?ticket:string -> ?max_attempts:int -> Mvcc.t -> (Mvcc.txn -> 'a) ->
  ('a * Timestamp.t, int) result

(** Number of guarded commits so far (the current ticket value). *)
val ticket_value : ?ticket:string -> Mvcc.t -> int
