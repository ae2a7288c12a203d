(** Transaction generation per the simulation model of §5.

    A transaction is an update with probability [update_tran_prob]; its
    length is uniform on [tran_size_min, tran_size_max]; each operation of an
    update transaction writes with probability [update_op_prob], otherwise
    reads. Keys are drawn uniformly from the key space. *)

open Lsr_sim

type op =
  | Read_op of string
  | Write_op of string * string

type kind =
  | Read_only
  | Update

type spec = {
  kind : kind;
  ops : op list;  (** in execution order; non-empty *)
}

(** [generate params rng] draws a fresh transaction: its size, its kind,
    then its operations in order. An update transaction is guaranteed at
    least one write (a writeless "update" would be a read-only transaction
    misrouted to the primary). Each key is {!Lsr_storage.Mvcc.key_name} of
    an {!index} draw. It is {!draw} with a read's keys drawn at once. *)
val generate : Params.t -> Rng.t -> spec

type draw =
  | Reads of { size : int; keys : Rng.t }
      (** [size] reads whose keys are [size] {!index} draws from [keys] *)
  | Updates of op list

(** [draw params rng] draws a transaction with a read's keys left in the
    stream: [keys] is a {!Rng.copy} of [rng] where the keys come, and
    [rng] {!Rng.skip}s them, as each {!index} draw is exactly one
    {!Rng.bits64}. *)
val draw : Params.t -> Rng.t -> draw

(** [index params rng] draws one key number in [[0, key_space)], Zipf when
    [key_skew > 0]. *)
val index : Params.t -> Rng.t -> int

(** [fresh_value rng] draws a value to write: the same string as
    ["v" ^ Int64.to_string (Rng.bits64 rng)], from the same one draw. *)
val fresh_value : Rng.t -> string

val is_update : spec -> bool
