(** Logical write-ahead log of a site.

    The paper assumes "a logical log containing update records is available
    ... each update transaction's start timestamp is inserted into the log,
    followed by the transaction's update records, and then the transaction's
    commit record tagged with its commit timestamp or the abort record"
    (§3). Algorithm 3.1 ships a transaction's updates only with its commit
    record, so here the commit entry carries them: the squashed writeset the
    commit installed, and no entry is logged per write. The propagator of
    Algorithm 3.1 is a sniffer over this log, and its entries are the
    records it ships. *)

(** One logical update: assigning [value] to [key] ([None] deletes). *)
type update = { key : string; value : string option }

(** [squash updates] keeps one update per key of a transaction's updates,
    given in write order: keys in first-write order, each with the last
    value written (the record of that last write, not a copy). When no key
    repeats it returns [updates] itself. Linear: up to 16 updates are
    checked for a repeat pair by pair, allocating nothing; a longer list,
    or one with a repeat, goes through one table of its keys. *)
val squash : update list -> update list

type entry =
  | Start of { txn : int; ts : Timestamp.t }
  | Commit of { txn : int; ts : Timestamp.t; updates : update list }
      (** [updates] is the list the commit installed, one per key in
          first-write order ({!squash} of the writes), shared with the
          committing store's commit list and every refresh of it. *)
  | Abort of { txn : int; writes : int }
      (** [writes] counts the writes the transaction had buffered: the work
          the eager-propagation ablation ships and secondaries discard. *)

val txn : entry -> int

(** ["start"], ["commit"] or ["abort"]: the entry's tag alone, used by the
    fault channel to label flight events without rendering payloads. *)
val kind_name : entry -> string

type t

val create : unit -> t
val append : t -> entry -> unit

(** Number of entries ever appended. *)
val length : t -> int

(** [entry t i] is the [i]th entry (0-based).
    @raise Invalid_argument when out of range. *)
val entry : t -> int -> entry

(** [read_from t offset] is all entries at positions [>= offset], in order,
    paired with the next offset. The propagator uses this as its cursor.
    Reading at exactly [length t] returns [([], length t)].
    @raise Invalid_argument when [offset] lies below the truncation point
    ({!truncate_before}): records there are gone, and skipping them silently
    would corrupt any consumer's view of the log. *)
val read_from : t -> int -> entry list * int

(** [truncate_before t offset] discards storage for entries below [offset]
    (offsets remain stable). Models log reclamation once all secondaries
    have consumed a prefix. Reading a discarded entry raises. *)
val truncate_before : t -> int -> unit

val pp_entry : Format.formatter -> entry -> unit
