(** Observability substrate: a registry of named counters, gauges and
    log-linear histograms.

    One {!t} is one measurement domain (typically one simulation run or one
    embedded system). Layers receive it at construction time, intern their
    instruments once, and bump them on the hot path; with the {!null}
    instance every operation is a single load-and-branch no-op, so
    instrumented code pays nothing when no sink is attached and simulation
    outcomes are independent of whether observation is on.

    Instruments are interned by name: asking twice for the same name returns
    the same instrument, so components that share a name aggregate (e.g.
    every simulated client feeds one ["client.read_rt"]) while per-site
    names stay separate. Names are conventionally dotted paths
    ([layer.metric]). A registry records a fact no other record holds: a
    count another record already keeps (a channel's, the watchdog's, the
    history's) is not copied in.

    A registry holds its instruments and nothing per event: its memory is
    bounded by the number of names, not by run length. The per-event
    recorder is {!Flight}. The one exporter, {!metrics_json}, is
    deterministic (instruments sorted by name, fixed float formatting —
    same seed, same bytes). *)

type t

(** The disabled instance: instruments obtained from it ignore updates.
    This is the default everywhere. *)
val null : t

(** A fresh, enabled registry. *)
val create : unit -> t

val enabled : t -> bool

(** {2 Instruments} *)

type counter
type gauge
type histogram

(** [counter t name] interns the counter [name].
    @raise Invalid_argument if [name] is already a gauge or histogram. *)
val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit
val count : counter -> int

(** [gauge t name] interns the gauge [name]; a gauge keeps its last value
    and its peak. *)
val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_peak : gauge -> float

(** [histogram t name] interns a {!Histogram}: 64 linear sub-buckets per
    power of two in one fixed array, so response times spanning
    microseconds to minutes fit in constant memory and {!observe} allocates
    nothing. *)
val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** [hist_quantile h q] is {!Histogram.quantile}: the midpoint of the
    bucket holding the nearest-rank sample, within relative error 1/128 of
    it (exactly 0 for samples [<= 0]). 0 on an empty histogram.
    @raise Invalid_argument unless [0 <= q <= 1]. *)
val hist_quantile : histogram -> float -> float

(** Every interned instrument name, sorted ([[]] for {!null}). *)
val names : t -> string list

(** {2 Export} *)

(** Flat metrics dump:
    [{"counters":{..}, "gauges":{name:{"last":..,"peak":..}},
      "histograms":{name:{"count":..,"sum":..,"mean":..,
                          "p50":..,"p95":..,"p99":..,
                          "buckets":[[upper_bound, count],..]}}}],
    instruments sorted by name. Quantiles are {!hist_quantile} estimates;
    [buckets] lists the non-empty buckets in increasing order, each by its
    exclusive upper bound (0 for the zero bucket). *)
val metrics_json : t -> Json.t
