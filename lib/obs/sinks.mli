(** The two observability sinks every replication layer takes as one value
    at construction: [obs] for its instruments, and the flight recorder,
    which receives each pipeline stage through the single tap {!stage}. *)

type t = { obs : Obs.t; flight : Flight.t }

(** Both disabled: the default everywhere. *)
val null : t

(** [tracing t] is true when {!stage} records anything. Call sites build a
    stage payload only behind it, so a run with no recorder allocates
    nothing. *)
val tracing : t -> bool

(** [stage t ?site ~txn s] records stage [s] of update transaction [txn]
    (the primary MVCC id) at [site] ([None] = the primary). *)
val stage : t -> ?site:string -> txn:int -> Flight.stage -> unit
