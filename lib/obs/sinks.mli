(** The two observability sinks every replication layer takes as one value
    at construction: [obs] for its instruments, and the flight recorder,
    which receives each pipeline stage through the single tap {!stage}. *)

type t = { obs : Obs.t; flight : Flight.t }

(** Both disabled: the default everywhere. *)
val null : t

(** [tracing t] is true when {!stage} records anything. *)
val tracing : t -> bool

(** {!Flight.note_stage} on the recorder: allocates nothing. *)
val stage :
  t -> site:int -> txn:int -> Flight.stage -> record:int -> int -> unit
