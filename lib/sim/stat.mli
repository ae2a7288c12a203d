(** Streaming sample statistics (Welford accumulation).

    One tally per measured quantity: response times by transaction class,
    queue lengths, and so on. Numerically stable for long runs. *)

type t

val create : unit -> t
val record : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float

(** Unbiased sample standard deviation; 0 for fewer than two samples. *)
val stddev : t -> float

(** Smallest / largest recorded sample; [None] while the tally is empty
    (never the [infinity] / [neg_infinity] sentinels, which would otherwise
    leak into reports from series that saw no samples). *)
val min : t -> float option

val max : t -> float option

val clear : t -> unit

(** [merge a b] is a fresh tally equivalent to recording both sample sets. *)
val merge : t -> t -> t
