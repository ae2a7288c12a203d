(** Transaction handle given to client code by {!System}.

    Wraps one open {!Lsr_storage.Mvcc} transaction, which the replica-set
    core opened ({!Replica_set.begin_update}, {!Replica_set.begin_read}),
    and appends every value it reads, as it reads it, to the transaction's
    read buffer ({!History.reads}), which the core judges and records, so
    finished executions can be checked against the SI definitions. Both
    raw key-value and relational ({!Lsr_storage.Row}) access are provided. *)

open Lsr_storage

type t

(** Raised at a write through a read-only transaction's handle, naming the
    storage key; nothing is buffered, and the body's caller abandons it. *)
exception Read_only of { key : string }

(** [make ~schema ~tracked ~read_only reads db txn] serves [txn] on [db].
    Made by {!Replica_set}; client code receives handles ready-made.
    [schema] maps table names to their indexed fields (see
    {!Lsr_storage.Table}); tables not listed have no indexes. With
    [tracked], each read is appended to [reads], in operation order: once
    per {!get} or {!row_get}, once per row a row reader returns. Without
    it, [reads] is never written. With [read_only], every write raises
    {!Read_only}. *)
val make :
  schema:(string * string list) list ->
  tracked:bool ->
  read_only:bool ->
  History.reads ->
  Mvcc.t ->
  Mvcc.txn ->
  t

(** The MVCC transaction the handle serves. *)
val txn : t -> Mvcc.txn

(** The buffer the handle's reads land in. *)
val reads : t -> History.reads

(** {2 Key-value access (reads served)} *)

val get : t -> string -> string option

(** [get_number t n] is [get t (Mvcc.key_name n)], for [n >= 0], read
    through the number ({!Lsr_storage.Mvcc.read_number}); the read served
    holds the dictionary's copy of the name. *)
val get_number : t -> int -> string option
val put : t -> string -> string -> unit
val del : t -> string -> unit

(** {2 Relational access (reads served)} *)

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
