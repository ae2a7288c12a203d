(** Transaction handle given to client code by {!System}.

    Wraps one open {!Lsr_storage.Mvcc} transaction and hands every value it
    reads, as it reads it, to the callback it was made with: {!System}'s
    reports the read to the replica-set core ({!Replica_set.read_served}),
    which judges and records it, so finished executions can be checked
    against the SI definitions. The handle keeps no reads of its own. Both
    raw key-value and relational ({!Lsr_storage.Row}) access are provided. *)

open Lsr_storage

type t

(** Used by {!System}; client code receives handles ready-made. [schema]
    maps table names to their indexed fields (see {!Lsr_storage.Table});
    tables not listed have no indexes. Each read calls [on_read key value],
    in operation order: once per {!get} or {!row_get}, once per row a row
    reader returns. *)
val make :
  ?schema:(string * string list) list ->
  on_read:(string -> string option -> unit) ->
  Mvcc.t ->
  Mvcc.txn ->
  t

(** {2 Key-value access (reads reported)} *)

val get : t -> string -> string option
val put : t -> string -> string -> unit
val del : t -> string -> unit

(** {2 Relational access (reads reported)} *)

val row_get : t -> table:string -> pk:string -> Row.t option
val row_put : t -> table:string -> pk:string -> Row.t -> unit
val row_del : t -> table:string -> pk:string -> unit

(** [row_update t ~table ~pk f] rewrites a row in place; false when absent. *)
val row_update : t -> table:string -> pk:string -> (Row.t -> Row.t) -> bool

val row_scan : t -> table:string -> where:(Row.t -> bool) -> (string * Row.t) list

(** [row_lookup t ~table ~field ~value] uses the table's secondary index
    (declared in the system schema).
    @raise Invalid_argument when the field is not indexed. *)
val row_lookup :
  t -> table:string -> field:string -> value:Row.scalar -> (string * Row.t) list

(** [row_range t ~table ~field ~lo ~hi] seeks the secondary index for rows
    whose [field] lies in the interval (see {!Table.range_lookup}); matched
    rows are reported as reads, like {!row_lookup}.
    @raise Invalid_argument when the field is not indexed. *)
val row_range :
  t ->
  table:string ->
  field:string ->
  lo:(Row.scalar * bool) option ->
  hi:(Row.scalar * bool) option ->
  (string * Row.t) list

(** Indexed fields declared for a table in the system schema. *)
val indexed_fields : t -> table:string -> string list
