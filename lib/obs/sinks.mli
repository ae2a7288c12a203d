(** The three observability sinks every replication layer takes as one
    value at construction: [obs] for its counters and gauges, and the
    lineage sink and flight recorder, which both receive each pipeline
    stage through the single tap {!stage}. *)

type t = { obs : Obs.t; lineage : Lineage.t; flight : Flight.t }

(** All three disabled: the default everywhere. *)
val null : t

(** [tracing t] is true when {!stage} records anything. Call sites build a
    stage payload only behind it, so a run with no sink allocates nothing. *)
val tracing : t -> bool

(** [stage t ?site ~txn s] records stage [s] of update transaction [txn]
    (the primary MVCC id) at [site] ([None] = the primary) in the lineage
    sink and the flight recorder. *)
val stage : t -> ?site:string -> txn:int -> Lineage.stage -> unit
