(** Tiny filesystem helpers shared by the exporters.

    The file writer ([Json.write_file]) and the CSV exporter create missing
    parent directories of their output paths, so [--report out/deep/r.json]
    works without a prior [mkdir -p]. *)

(** [mkdir_p dir] creates [dir] and any missing ancestors ([mkdir -p]).
    Existing directories are left untouched. *)
val mkdir_p : string -> unit

(** [ensure_parent file] creates the directory that will contain [file]. *)
val ensure_parent : string -> unit
