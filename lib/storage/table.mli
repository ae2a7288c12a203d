(** Relational veneer over {!Mvcc}: named tables of {!Row.t} keyed by a
    primary key, with optional secondary indexes.

    Rows of table [tbl] with primary key [pk] live at storage key
    ["t:tbl:pk"]; index entries live at ["i:tbl:field:...pk"]. Both are
    ordinary versioned keys, so tables and their indexes replicate through
    the key/value machinery unchanged and stay transactionally consistent
    under snapshot isolation. Scans and index lookups enumerate every key
    ever written and filter by snapshot visibility, keeping them consistent
    with the transaction's snapshot. *)

type t

(** [define db ~name] declares a table handle (no storage effect; tables
    exist implicitly once rows are inserted). [indexes] lists row fields to
    maintain equality indexes on; every handle for the same table must
    declare the same indexes. *)
val define : ?indexes:string list -> Mvcc.t -> name:string -> t

(** [insert t txn ~pk row] writes a full row (also used for updates of the
    whole row) and maintains index entries. *)
val insert : t -> Mvcc.txn -> pk:string -> Row.t -> unit

(** [get t txn ~pk] is the visible row, if any. *)
val get : t -> Mvcc.txn -> pk:string -> Row.t option

(** [update t txn ~pk f] rewrites the row through [f]; no-op when absent.
    Returns whether a row was updated. *)
val update : t -> Mvcc.txn -> pk:string -> (Row.t -> Row.t) -> bool

(** [delete t txn ~pk] removes the row and its index entries. *)
val delete : t -> Mvcc.txn -> pk:string -> unit

(** [scan t txn ~where] is all visible rows satisfying the predicate, with
    their primary keys, sorted by primary key. *)
val scan : t -> Mvcc.txn -> where:(Row.t -> bool) -> (string * Row.t) list

(** [lookup t txn ~field ~value] is all visible rows whose [field] equals
    [value] under SQL comparison semantics ([Int 1] matches [Float 1.]),
    via the secondary index, sorted by primary key.
    @raise Invalid_argument when [field] is not declared in [indexes]. *)
val lookup : t -> Mvcc.txn -> field:string -> value:Row.scalar -> (string * Row.t) list

(** [range_lookup t txn ~field ~lo ~hi] is all visible rows whose [field]
    falls in the given interval, via a contiguous secondary-index seek.
    Each bound is [(value, inclusive)]; [None] leaves that side open (both
    [None] returns every row with the field present). Bounds compare with
    {!Row.scalar_compare}, so rows whose stored value is incomparable with
    a bound never match. Sorted by primary key.
    @raise Invalid_argument when [field] is not declared in [indexes]. *)
val range_lookup :
  t ->
  Mvcc.txn ->
  field:string ->
  lo:(Row.scalar * bool) option ->
  hi:(Row.scalar * bool) option ->
  (string * Row.t) list

(** The storage key for a row, exposed for tests and debugging. *)
val storage_key : t -> pk:string -> string
