(** Primary update propagation — Algorithm 3.1.

    A log sniffer over the primary's {!Lsr_storage.Wal}. Start records are
    forwarded the moment they appear (so a long-running transaction cannot
    stall propagation); a transaction's updates are shipped only with its
    commit record, so work for transactions that later abort is never sent
    to (or executed at) the secondaries. The log's entries are the shipped
    records: a commit entry already carries the squashed writeset the
    primary installed. Because the log is consumed in append order, emitted
    records are in primary timestamp order. *)

open Lsr_storage

type t

(** [create wal] is a propagator with its cursor at the start of the log:
    its first poll ships the whole log. [ship_aborted] (default false)
    keeps the write count of aborted transactions on their abort records —
    the "simple method" of §3.2 whose wasted secondary work the ablation
    benchmarks quantify; without it an abort record ships [writes = 0].

    A commit record's update list is the one the primary's commit built
    (one {!Wal.squash} of its writes) and installed. It is broadcast as it
    is: every secondary's refresh installs that list and keeps it in its
    commit list, so a writeset costs its records and its list once, however
    many secondaries there are. *)
val create : ?ship_aborted:bool -> Wal.t -> t

(** [poll t] consumes the log entries appended since the last poll and
    returns the records to broadcast, in order. *)
val poll : t -> Wal.entry list

(** Log offset of the cursor (entries below it have been consumed). *)
val position : t -> int

(** Transactions whose start record was seen but whose commit/abort has not
    yet been, i.e. in-flight at the primary (for monitoring). *)
val in_flight : t -> int
