(** Observability substrate: a registry of named counters, gauges and
    log-scale histograms, plus span tracing in simulator virtual time.

    One {!t} is one measurement domain (typically one simulation run or one
    embedded system). Layers receive it at construction time, intern their
    instruments once, and bump them on the hot path; with the {!null}
    instance every operation is a single load-and-branch no-op, so
    instrumented code pays nothing when no sink is attached and simulation
    outcomes are independent of whether observation is on.

    Instruments are interned by name: asking twice for the same name returns
    the same instrument, so components that share a name aggregate (e.g. all
    fault channels bump one ["channel.dropped"]) while per-site names stay
    separate. Names are conventionally dotted paths ([layer.metric]).

    Two exporters, both deterministic (instruments sorted by name, trace
    events in emission order, fixed float formatting — same seed, same
    bytes):
    - {!metrics_json}: a flat machine-readable dump of every instrument;
    - {!trace_json}: Chrome [trace_event] JSON loadable in Perfetto or
      [about://tracing], with spans grouped by track ("process/thread"). *)

type t

(** The disabled instance: instruments obtained from it ignore updates,
    spans are dropped. This is the default everywhere. *)
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

(** [histogram t name] interns a base-2 log-scale histogram: values fall
    into buckets of exponentially growing width, so response times spanning
    microseconds to minutes fit in a fixed 80-slot array. *)
val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** [hist_quantile h q] estimates the [q]-quantile (nearest-rank, matching
    [Lsr_stats.Histogram.quantile]) from the log-scale buckets, linearly
    interpolated within the selected bucket — exact to within one base-2
    bucket width. 0 on an empty histogram.
    @raise Invalid_argument unless [0 <= q <= 1]. *)
val hist_quantile : histogram -> float -> float

(** Every interned instrument name, sorted ([[]] for {!null}). *)
val names : t -> string list

(** {2 Spans (virtual-time tracing)}

    Timestamps come from the caller (simulator virtual seconds), never from
    a wall clock — tracing a deterministic run yields a deterministic trace.
    A track is a ["process/thread"] path: the segment before the first [/]
    groups tracks into Perfetto processes (e.g. ["site-0/refresher"],
    ["site-0/applicators"], ["primary/propagator"]). *)

type span

(** [begin_span t ~track ~name ~now] opens a span; close it with
    {!end_span}. Unclosed spans are dropped by the exporter. *)
val begin_span : t -> track:string -> name:string -> now:float -> span

val end_span :
  ?args:(string * string) list -> t -> span -> now:float -> unit

(** [instant t ~track ~name ~now] is a zero-duration marker event. *)
val instant :
  ?args:(string * string) list ->
  t -> track:string -> name:string -> now:float -> unit

(** Trace events recorded so far (diagnostic; 0 for {!null}). *)
val event_count : t -> int

(** {2 Export} *)

(** Flat metrics dump:
    [{"counters":{..}, "gauges":{name:{"last":..,"peak":..}},
      "histograms":{name:{"count":..,"sum":..,"mean":..,
                          "p50":..,"p95":..,"p99":..,
                          "buckets":[[upper_bound, count],..]}}}],
    instruments sorted by name. Quantiles are {!hist_quantile} estimates. *)
val metrics_json : t -> Json.t

(** Chrome [trace_event] JSON (the [{"traceEvents":[..]}] envelope):
    metadata events naming each process and thread, then one [ph:"X"]
    complete event per closed span and one [ph:"i"] instant per marker,
    timestamps in microseconds of virtual time. *)
val trace_json : t -> string

(** [write_trace t ~file] writes {!trace_json} to [file], creating missing
    parent directories. The metrics dump has no file writer of its own: it
    is a section of the run report. *)
val write_trace : t -> file:string -> unit
