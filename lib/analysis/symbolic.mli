(** Symbolic read/write sets of transaction templates.

    A template accesses {e regions} of tables rather than concrete rows: a
    pk-equality WHERE pins an exact key (possibly a named parameter), any
    other search condition is a predicate/range access, and WHERE TRUE is a
    whole-table scan. Predicate and scan accesses also stand for the
    {e predicate read} they perform — the executor evaluates the condition
    against every row of the table, so they conflict with any write to the
    table (which is also what makes them phantom-prone).

    Overlap ([may_overlap]) is deliberately conservative: it must
    over-approximate the conflicts any {e instance} of the templates can
    exhibit at run time, because the static dependency graph built from it
    ({!Sdg}) is required to cover every cycle the dynamic
    {!Lsr_core.Checker} can find. Two accesses are known disjoint only when
    they touch different tables or two distinct constant keys. *)

(** A symbolic primary key: a constant from the template text, or a named
    template parameter (written [':name'] in template SQL) that ranges over
    the whole key space. *)
type key =
  | Const of string
  | Param of string

(** The region of a table one access touches. [Range] carries the search
    condition for reporting; [Scan] is WHERE TRUE. *)
type region =
  | Exact of key
  | Range of Lsr_sql.Ast.cond
  | Scan

type access = {
  table : string;
  region : region;
}

(** Read and write accesses of a statement or template, deduplicated. *)
type footprint = {
  reads : access list;
  writes : access list;
}

val empty : footprint

(** Symbolic footprint of one statement. EXPLAIN accesses nothing. *)
val statement_footprint : Lsr_sql.Ast.statement -> footprint

(** Union with deduplication. *)
val union : footprint -> footprint -> footprint

(** Conservative overlap test; [false] only when instances of the two
    accesses can never touch a common row. *)
val may_overlap : access -> access -> bool

(** Template parameters named anywhere in the statement ([':x'] literals),
    deduplicated in first-occurrence order. *)
val statement_params : Lsr_sql.Ast.statement -> string list

(** [bind binding stmt] substitutes parameter literals ([Text ":x"]) with
    their bound values, yielding a concrete executable statement.
    @raise Invalid_argument on an unbound parameter. *)
val bind :
  (string * Lsr_sql.Ast.literal) list -> Lsr_sql.Ast.statement ->
  Lsr_sql.Ast.statement

val access_to_string : access -> string
