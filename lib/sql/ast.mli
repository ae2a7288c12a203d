(** Abstract syntax of the SQL subset.

    Deliberately small but useful: single-table statements whose WHERE
    clauses are boolean combinations of column/literal comparisons. Every
    table has a TEXT primary-key column named [pk] (the storage layer's
    row key); INSERT must bind it. *)

type literal =
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool
  | Null  (** matches absent columns *)

type comparison =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type cond =
  | True
  | Cmp of { column : string; op : comparison; value : literal }
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type order =
  | Asc of string
  | Desc of string

type aggregate =
  | Count_all  (** COUNT over all matching rows *)
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

type projection =
  | All  (** the star projection *)
  | Columns of string list
  | Aggregates of aggregate list
      (** e.g. [SELECT COUNT, AVG(price) FROM ...] with COUNT written as
          COUNT-star in concrete syntax; aggregates and plain
          columns cannot be mixed in one projection. Without GROUP BY the
          aggregates collapse all matching rows into a single result row
          (ORDER BY / LIMIT are rejected there). With [GROUP BY col] — legal
          only for aggregate projections — one result row per distinct value
          of [col] is produced (rows lacking [col] form their own group,
          carried without the group field), the aggregate output columns
          ([count], [sum_price], ...) are legal in HAVING and ORDER BY, and
          HAVING filters the grouped result rows. *)

type statement =
  | Select of {
      projection : projection;
      table : string;
      where : cond;
      group_by : string option;
      having : cond;  (** filter over grouped result rows; [True] if absent *)
      order_by : order option;
      limit : int option;
    }
  | Insert of { table : string; row : (string * literal) list }
  | Update of { table : string; set : (string * literal) list; where : cond }
  | Delete of { table : string; where : cond }
  | Explain of statement
      (** shows the access path (index lookup vs full scan) without
          executing; nesting EXPLAIN is rejected by the parser *)

val pp_literal : Format.formatter -> literal -> unit
val pp_cond : Format.formatter -> cond -> unit

(** Render back to parsable SQL (used by the parser round-trip tests). *)
val to_string : statement -> string
