(** Typed rows and their wire encoding.

    A row is a flat record of named scalar fields. Rows are stored in
    {!Mvcc} as strings via a small length-prefixed codec, so the replication
    machinery (which ships opaque key/value updates) needs no knowledge of
    schemas. *)

type scalar =
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type t = (string * scalar) list

val pp_scalar : Format.formatter -> scalar -> unit
val pp : Format.formatter -> t -> unit

(** Field access. *)

val find : t -> string -> scalar option

(** @raise Not_found when absent or of the wrong type. *)
val int_exn : t -> string -> int

val float_exn : t -> string -> float
val text_exn : t -> string -> string
val bool_exn : t -> string -> bool

(** [set row field v] replaces (or adds) one field. *)
val set : t -> string -> scalar -> t

(** [scalar_key v] is an injective string encoding of [v] (used e.g. for
    group-by bucketing). Not order-preserving, and distinguishes [Int 1]
    from [Float 1.]; equal scalars (and only equal scalars) map to equal
    strings. *)
val scalar_key : scalar -> string

(** [scalar_compare a b] orders two scalars under SQL comparison semantics:
    [Int]/[Float] compare numerically across types, all other comparisons
    require matching constructors. [None] = incomparable. *)
val scalar_compare : scalar -> scalar -> int option

(** [order_key v] encodes [v] so that [String.compare (order_key a)
    (order_key b)] agrees with {!scalar_compare} whenever the latter is
    defined ([Int 1] and [Float 1.] encode identically; integers beyond
    2{^53} are rounded to the nearest float, so callers re-verify with
    {!scalar_compare}). Incomparable types land in disjoint tagged bands
    ordered [Bool < numeric < Text]. The result never contains ['\x00'],
    so it can be followed by a ['\x00'] separator in composite keys. *)
val order_key : scalar -> string

(** First byte of {!order_key}: ['b'], ['n'] or ['s']. *)
val order_tag : scalar -> char

(** {2 Codec} *)

val encode : t -> string

(** @raise Failure on malformed input. *)
val decode : string -> t
