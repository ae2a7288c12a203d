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
