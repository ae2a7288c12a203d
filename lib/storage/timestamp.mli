(** Logical timestamps issued by a site's local concurrency control.

    A single monotone counter serves both start and commit timestamps, which
    realizes the operational SI rule that a commit timestamp is "more recent
    than any start or commit timestamp assigned to any transaction" (§2.1).
    Timestamps are site-local: the protocols never compare timestamps issued
    by different sites, only use the primary's order. *)

type t = int

val zero : t
val compare : t -> t -> int
val equal : t -> t -> bool

(** The later of two timestamps, without polymorphic compare. *)
val max : t -> t -> t

val pp : Format.formatter -> t -> unit

(** A mutable source of fresh timestamps. *)
type source

val source : unit -> source

(** [next s] is a timestamp strictly larger than every one issued before. *)
val next : source -> t

(** Largest timestamp issued so far ([zero] initially). *)
val current : source -> t
