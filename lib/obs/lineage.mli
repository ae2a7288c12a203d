(** Causal lineage tracing for update transactions, plus the per-site
    replication freshness observer.

    A {!t} is a sink that follows each update transaction through the
    replication pipeline: the trace id is the transaction's primary MVCC id
    (already carried by every {!Txn_record}-shaped message), and each layer
    appends one causally-linked, virtual-time-stamped {!event} as the
    transaction passes through — primary commit, propagation batching and
    shipping, the fault channel's injected misbehaviour, and each
    secondary's refresh machinery. Reads contribute {!freshness} samples:
    how stale the snapshot a read-only transaction actually saw was.

    The module obeys the observability design rules (docs/OBSERVABILITY.md,
    docs/TRACING.md):
    - {e explicit plumbing}: layers receive the sink at construction time;
      there is no global.
    - {e free when off}: {!null} makes every operation a load-and-branch
      no-op, and call sites guard event construction behind {!enabled}.
    - {e observation never feeds back}: the sink only records; nothing in
      the pipeline reads it.
    - {e deterministic export}: timestamps are virtual (or event-ordinal),
      transactions and sites are sorted, floats use the canonical
      {!Json.number} form — same seed, same bytes. *)

type t

(** The disabled sink: everything is a no-op, accessors return nothing. *)
val null : t

(** A fresh, enabled sink. *)
val create : unit -> t

val enabled : t -> bool

(** [set_clock t f] makes [f] the source of event timestamps (the simulator
    binds its virtual [Engine.now]). Without a clock, events are stamped
    with their own ordinal — still strictly monotone in emission order. *)
val set_clock : t -> (unit -> float) -> unit

(** {2 Recording} *)

(** One pipeline stage of a transaction's journey. Channel stages identify
    the affected record by its rendered kind ([record]) because a network
    message may carry any {!Txn_record}; [ticks] is the injected extra
    delay in channel ticks. *)
type stage =
  | Primary_commit of { commit_ts : int; updates : int }
  | Batched  (** the propagator opened a batch for this transaction *)
  | Shipped of { updates : int }
      (** the squashed commit record left the propagator *)
  | Channel_dropped of { record : string }
  | Channel_duplicated of { record : string }
  | Channel_delayed of { record : string; ticks : int }
  | Channel_retransmitted of { record : string }
  | Enqueued  (** commit record entered a secondary's refresh queue *)
  | Refresh_started
  | Refresh_committed of { commit_ts : int }

type event = {
  seq : int;  (** global emission order *)
  time : float;  (** virtual time (or event ordinal without a clock) *)
  txn : int;  (** trace id: the primary MVCC transaction id *)
  site : string option;  (** [None] = the primary *)
  stage : stage;
}

(** [emit t ~txn stage] appends one event. *)
val emit : t -> ?site:string -> txn:int -> stage -> unit

(** One read-only transaction's staleness measurement at a secondary. The
    sink does not compute it: the replica-set core derives it from the
    primary commit clock ([Session.clock_freshness]), so samples share the
    time axis of [Max_age] fences. *)
type freshness = {
  at : float;  (** when the read snapshot was taken *)
  age : float;
      (** virtual-time age of the newest primary commit reflected in the
          snapshot — 0 when the site had every commit applied *)
  missed : int;
      (** committed-but-unapplied primary transactions at sample time *)
}

(** [sample_read t ~site ~at ~age ~missed] records one freshness sample
    for a read-only transaction at [site]. *)
val sample_read : t -> site:string -> at:float -> age:float -> missed:int -> unit

(** [sample_lag t ~site lag] records one propagation lag at [site]: refresh
    commit time minus primary commit time, on the commit clock's axis. *)
val sample_lag : t -> site:string -> float -> unit

(** {2 Accessors} *)

val event_count : t -> int

(** [Primary_commit] events recorded so far, over every run on the sink. *)
val commit_count : t -> int

(** All events, in emission order. *)
val events : t -> event list

(** Traced transaction ids, ascending. *)
val txns : t -> int list

(** [journey t ~txn] is [txn]'s events in emission order — causally sorted,
    with non-decreasing [time]. *)
val journey : t -> txn:int -> event list

(** Sites with at least one freshness or lag sample, sorted. *)
val sites : t -> string list

val freshness_samples : t -> site:string -> freshness list

(** Propagation lags (refresh commit − primary commit) observed at [site],
    in refresh-commit order. *)
val refresh_lags : t -> site:string -> float list

(** {2 Rendering and export} *)

val stage_name : stage -> string

(** One journey line: time, site, stage and stage details. *)
val pp_event : Format.formatter -> event -> unit

(** One event as a JSON object ([{seq,time,site,stage,..}] with the stage's
    detail fields inlined) — the element shape of {!to_json}'s journey
    arrays, exposed so the flight recorder's postmortem bundles can embed
    journeys in the same form. *)
val event_json : event -> Json.t

(** Deterministic lineage document:
    [{"commits":..,"events":..,
      "txns":[{"txn":..,"events":[{seq,time,site,stage,..}]}],
      "sites":[{"site":..,"freshness":[{at,age,missed}],
                "refresh_lags":[..]}]}],
    transactions sorted by id, events in emission order, sites sorted. *)
val to_json : t -> Json.t
