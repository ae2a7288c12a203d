(** A minimal, dependency-free JSON layer for the observability exporters.

    Emission is Buffer-based and deterministic (callers control field order
    and float formatting); parsing is a small recursive-descent reader used
    by tests, [lsrepl replay] and the benchmark to read emitted files back. This is not a general-purpose JSON library: no
    streaming, no unicode escapes beyond [\uXXXX] pass-through on input. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] reads one JSON value; trailing non-whitespace is an error. *)
val parse : string -> (t, string) result

(** [member name j] is the value of field [name] when [j] is an object. *)
val member : string -> t -> t option

(** [to_string j] is the canonical text of [j]: no whitespace, object
    field order preserved, floats as [%.12g] with non-finite values mapped
    to [null] (JSON has no inf/nan). Every exporter emits through it. *)
val to_string : t -> string

(** [write_file ~file j] writes {!to_string} [j] and a trailing newline to
    [file], creating missing parent directories first. *)
val write_file : file:string -> t -> unit

(** [sort_keys j] recursively sorts every object's fields by name — the
    canonical form the analyzer and planner exporters emit so their JSON is
    byte-stable under refactoring (array order is semantic and preserved). *)
val sort_keys : t -> t
