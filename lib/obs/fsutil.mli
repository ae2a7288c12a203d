(** Tiny filesystem helpers shared by the exporters.

    Every file writer ([Json.write_file], [Obs.write_trace]) creates missing
    parent directories of its output path, so [--report out/deep/r.json]
    works without a prior [mkdir -p]. *)

(** [mkdir_p dir] creates [dir] and any missing ancestors ([mkdir -p]).
    Existing directories are left untouched. *)
val mkdir_p : string -> unit

(** [ensure_parent file] creates the directory that will contain [file]. *)
val ensure_parent : string -> unit
