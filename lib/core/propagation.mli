(** Primary update propagation — Algorithm 3.1.

    A log sniffer over the primary's {!Lsr_storage.Wal}. Start records are
    forwarded the moment they appear (so a long-running transaction cannot
    stall propagation); update records are accumulated into per-transaction
    update lists; a transaction's updates are shipped only with its commit
    record, so work for transactions that later abort is never sent to (or
    executed at) the secondaries. Because the log is consumed in append
    order, emitted records are in primary timestamp order. *)

open Lsr_storage

type t

(** [create wal] is a propagator with its cursor at the current log head,
    i.e. it forwards entries appended from now on. Use [~from:0] to replay
    the whole log (e.g. when attaching a fresh secondary). [ship_aborted]
    (default false) attaches aborted transactions' update lists to their
    abort records — the "simple method" of §3.2 whose wasted secondary work
    the ablation benchmarks quantify. [sinks.obs] receives the counters
    [propagation.polls] / [propagation.records_shipped] and the
    [propagation.in_flight] gauge; a [Batched] stage is tapped when a
    transaction's start record is picked up and a [Shipped] stage when its
    squashed commit record leaves the propagator.

    A commit record's update list is built once, by one {!Wal.squash} of
    the logged updates (linear in their number), from the primary's own
    update records. It is broadcast as it is: every secondary's refresh
    installs that list and keeps it in its commit list, so a writeset
    costs its records once and its list twice (primary and shipped),
    however many secondaries there are. *)
val create :
  ?from:int -> ?ship_aborted:bool -> ?sinks:Lsr_obs.Sinks.t -> Wal.t -> t

(** [poll t] consumes the log entries appended since the last poll and
    returns the records to broadcast, in order. *)
val poll : t -> Txn_record.t list

(** Log offset of the cursor (entries below it have been consumed). *)
val position : t -> int

(** Transactions whose start record was seen but whose commit/abort has not
    yet been, i.e. in-flight at the primary (for monitoring). *)
val in_flight : t -> int
