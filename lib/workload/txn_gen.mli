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

(** [generate params rng] draws a fresh transaction. An update transaction is
    guaranteed at least one write (a writeless "update" would be a read-only
    transaction misrouted to the primary). *)
val generate : Params.t -> Rng.t -> spec

(** [key_name i] is the name of key index [i], the same string as
    [Printf.sprintf "item:%06d" i]. For [0 <= i < 1_000_000] it allocates
    only the eleven-byte string. *)
val key_name : int -> string

(** [fresh_value rng] draws a value to write: the same string as
    ["v" ^ Int64.to_string (Rng.bits64 rng)], from the same one draw. *)
val fresh_value : Rng.t -> string

val is_update : spec -> bool
