(** Deterministic pseudo-random streams for simulation.

    SplitMix64 generator: tiny state, good statistical quality, and cheap
    {!split}ting so each simulated client can own an independent stream —
    replications then differ only in the root seed, which keeps experiments
    reproducible and lets variance-reduction comparisons share streams. *)

type t

(** [create seed] is a new stream. Equal seeds produce equal streams. *)
val create : int -> t

(** [split t] derives an independent stream, advancing [t]. *)
val split : t -> t

(** [copy t] is an independent stream that draws what [t] draws next. *)
val copy : t -> t

(** [skip t n], for [n >= 0], moves [t] in O(1) to where [n] calls to
    {!bits64} would. Each draw below consumes exactly one {!bits64}. *)
val skip : t -> int -> unit

(** [save t bank i] stores [t]'s state in slot [i] of a bank, a [Bytes.t]
    of 8 bytes per slot, so a banked stream costs one word. [load bank i]
    is a fresh stream that draws exactly what the stream last saved in
    slot [i] would have drawn next had it never been banked. *)
val save : t -> Bytes.t -> int -> unit
val load : Bytes.t -> int -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [float t] is uniform on [0, 1). *)
val float : t -> float

(** [uniform t ~lo ~hi] is a uniform integer in [lo, hi] inclusive.
    @raise Invalid_argument when [lo > hi]. *)
val uniform : t -> lo:int -> hi:int -> int

(** [exponential t ~mean] draws from Exp with the given mean.
    @raise Invalid_argument when [mean <= 0]. *)
val exponential : t -> mean:float -> float

(** [bernoulli t ~p] is true with probability [p] (clamped to [0, 1]). *)
val bernoulli : t -> p:float -> bool

(** [zipf t ~n ~s] draws a rank in [1, n] with probability proportional to
    [1 / rank^s] (continuous-approximation inverse method; exact enough for
    workload skew). [s = 0] degenerates to uniform.
    @raise Invalid_argument when [n < 1] or [s < 0]. *)
val zipf : t -> n:int -> s:float -> int
