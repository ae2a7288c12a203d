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
    misrouted to the primary). The stream contract {!draw} relies on: a
    read-only transaction's operations are [size] {!key} draws and nothing
    else, and each {!key} draw is exactly one {!Rng.bits64}. *)
val generate : Params.t -> Rng.t -> spec

type draw =
  | Reads of { size : int; keys : Rng.t }
      (** [size] reads whose keys are [size] {!key} draws from [keys] *)
  | Updates of op list

(** [draw params rng] is {!generate} with a read's keys left in the
    stream: [keys] is a {!Rng.copy} of [rng] where {!generate} would draw
    them, and [rng] {!Rng.skip}s them, so it ends where {!generate} leaves
    it and the keys, drawn later from [keys], are {!generate}'s. *)
val draw : Params.t -> Rng.t -> draw

(** [key params rng] draws one key, Zipf when [key_skew > 0]. *)
val key : Params.t -> Rng.t -> string

(** [key_name i] is the name of key index [i], the same string as
    [Printf.sprintf "item:%06d" i]. For [0 <= i < 1_000_000] it allocates
    only the eleven-byte string. *)
val key_name : int -> string

(** [fresh_value rng] draws a value to write: the same string as
    ["v" ^ Int64.to_string (Rng.bits64 rng)], from the same one draw. *)
val fresh_value : Rng.t -> string

val is_update : spec -> bool
