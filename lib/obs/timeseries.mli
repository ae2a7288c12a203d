(** A deterministic multi-column time series: the storage behind the
    virtual-time system monitor.

    Samples are (run, time, named values) triples. [run] is a 1-based
    ordinal bumped by {!new_run}, so one series can hold the samples of a
    whole sweep (replications restart virtual time at 0; the ordinal keeps
    them apart). Columns are the union of value names over all samples,
    exported in sorted order; a sample that lacks a column exports as
    [null].

    The export is deterministic — sorted columns, emission-ordered rows,
    canonical {!Json.to_string} float formatting — so a fixed seed yields
    byte-identical output. *)

type t

type sample = { run : int; time : float; values : (string * float) list }

val create : unit -> t

(** Start the next run: subsequent {!add}s carry the incremented ordinal.
    Call once before each simulation run that feeds this series. *)
val new_run : t -> unit

(** [add t ~time values] appends one sample at virtual [time]. *)
val add : t -> time:float -> (string * float) list -> unit

(** Samples in insertion order. *)
val samples : t -> sample list

(** Union of value names over all samples, sorted. *)
val columns : t -> string list

(** [{"columns": ["run","time",...], "rows": [[run,time,v,...],...]}]. *)
val to_json : t -> Json.t
