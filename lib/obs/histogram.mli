(** A fixed-memory log-linear histogram (in the style of HdrHistogram and
    DDSketch): the one distribution store behind run metrics and the
    observability registry.

    A positive sample falls into one of 64 equal-width sub-buckets of its
    power of two, read straight from its IEEE-754 bits (the exponent and the
    top 6 mantissa bits). So finding the bucket allocates nothing, and a
    bucket's midpoint is within relative error [1/128] of every sample in
    it. The range is [2^-40, 2^40): larger samples count in the last bucket,
    smaller positive ones in the first. Samples [<= 0] (and NaN) go to an
    exact zero bucket. Memory is one fixed array of 5,121 counts, allocated
    at the first sample, however many samples follow. *)

type t

val create : unit -> t

(** [record t x] adds one sample. Allocation-free after the first. *)
val record : t -> float -> unit

(** Samples recorded (exact). *)
val count : t -> int

(** Sum of the samples, accumulated in recording order (exact as a
    sequential float sum). *)
val sum : t -> float

(** [quantile t q] is the midpoint of the bucket holding the nearest-rank
    sample (rank [max 1 (ceil (q * count))]): within relative error
    [1/128] of that sample for samples in range, exactly 0 when the rank
    falls in the zero bucket, and 0 on an empty histogram.
    @raise Invalid_argument unless [0 <= q <= 1] (so also for NaN). *)
val quantile : t -> float -> float

(** [fold f t init] folds [f upper count] over the non-empty buckets in
    increasing order, where [upper] is the bucket's exclusive upper bound
    (0 for the zero bucket). *)
val fold : (float -> int -> 'a -> 'a) -> t -> 'a -> 'a
