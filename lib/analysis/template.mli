(** Transaction templates: the static unit of analysis.

    A template is a named transaction program — a list of SQL statements
    whose literals may be {e parameters} (TEXT literals written [':name']) —
    or a raw key-value program derived from {!Lsr_workload.Txn_gen}. Each
    carries its symbolic {!Symbolic.footprint} and its routing class
    (read-only templates run at a secondary, update templates at the
    primary), which is everything {!Sdg} and {!Session_pass} consume. *)

type t = {
  name : string;
  statements : Lsr_sql.Ast.statement list;
  read_only : bool;  (** routed to a secondary when analyzed for placement *)
  footprint : Symbolic.footprint;
}

(** @raise Failure on a malformed statement (carries the typed error's
    message); for statically-known template text. *)
val of_sql_exn : name:string -> string list -> t

(** The two symbolic templates of the {!Lsr_workload.Txn_gen} generator —
    a read-only and an update transaction over the shared key space, every
    key a free parameter (so any two instances may collide). *)
val txn_gen_templates : unit -> t list

(** Raised by {!check_distinct} with the offending name. Template names are
    SDG node identities, so a duplicate would silently merge two distinct
    programs into one node. *)
exception Duplicate_template of string

(** [check_distinct ts] validates that template names are pairwise distinct.
    Called by {!Sdg.build} (and therefore by every analyzer entry point).
    @raise Duplicate_template on the first repeated name. *)
val check_distinct : t list -> unit

(** Parameters of the template, first occurrence order. *)
val params : t -> string list

(** [instantiate t binding] substitutes parameters, yielding executable
    statements.
    @raise Invalid_argument on an unbound parameter. *)
val instantiate :
  t -> (string * Lsr_sql.Ast.literal) list -> Lsr_sql.Ast.statement list

val pp : Format.formatter -> t -> unit
