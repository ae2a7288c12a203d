(** The flight recorder: a bounded in-memory black box over the unified
    replication event stream — the one per-transaction recorder, read back
    by {!journey} — postmortem bundles, and the replay/diff engine behind
    [lsrepl replay].

    A {!t} is a fixed-capacity ring buffer over a compact encoding (parallel
    scalar arrays, site and record names interned) of the same event
    vocabulary the online watchdog consumes: primary commits, propagation
    batching/shipping, fault-channel misbehaviour, per-site refresh
    start/commit, per-read snapshot+fence claims, and secondary
    crash/recovery. Its arrays are fixed at creation — [O(capacity)]
    regardless of run length — so the recorder is affordable on every run,
    including the million-client showcase. The one thing it holds that is
    not its own is the clock closure of {!set_clock}: a recorder that
    outlives its run keeps whatever that closure reads alive.

    On {!trigger} (the watchdog's first alert, a checker failure, or an
    explicit flag), the recorder snapshots the ring — the event window
    leading up to the trigger instant — together with per-site visibility
    horizons. First trigger wins: later triggers do not overwrite the
    captured window. {!bundle_json} then assembles the postmortem bundle:
    the window, the implicated transactions, horizons and the reproducing
    config+seed. The registry's metrics are not copied in: a run report
    holds them once, in its own [metrics] section.

    The module obeys the observability design rules (docs/OBSERVABILITY.md,
    docs/FLIGHT.md): explicit plumbing ({!null} default, constructors take
    the sink), free when off (every recording call is a load-and-branch
    behind {!enabled}), observation never feeds back (the recorder only
    writes its own arrays; timestamps come from the bound virtual clock,
    never the wall clock), and deterministic export (same seed ⇒
    byte-identical bundles).

    The second half of the module is the consumer: {!parse_bundle} reads a
    bundle back (lsrepl replay reads it from a run report's [flight]
    section), {!events_until}/{!horizons_at}/{!txn_events} reconstruct the
    window in virtual time, {!witness_events} extracts the concrete
    interleaving of the implicated transactions, and {!diff} reports the
    first divergence between two bundles — a determinism audit. *)

type t

(** The disabled recorder: every operation is a no-op. *)
val null : t

(** [create ?capacity ()] is an enabled recorder retaining the most recent
    [capacity] events (default 4096, clamped to [>= 16]). *)
val create : ?capacity:int -> unit -> t

val enabled : t -> bool
val capacity : t -> int

(** [set_clock t f] makes [f] the source of event timestamps (the simulator
    binds its virtual [Engine.now]). Without a clock, events are stamped
    with their own ordinal. A caller that keeps the recorder after the run
    rebinds it to a constant, so the recorder does not pin the run's
    engine. *)
val set_clock : t -> (unit -> float) -> unit

(** [new_epoch t] rearms the recorder for a fresh run: the ring, horizon
    bookkeeping and any captured trigger are cleared. [Sim_system.run]
    calls this at start, so one recorder attached to a sweep records the
    current run only. *)
val new_epoch : t -> unit

(** {2 Recording} *)

(** One pipeline stage of an update transaction after its primary commit.
    Channel stages identify the affected record by its rendered kind
    ([record]) because a network message may carry any log entry;
    [ticks] is the injected extra delay in channel ticks. *)
type stage =
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

(** [note_stage t ?site ~txn stage] records one pipeline stage of update
    transaction [txn] (the primary MVCC id) at [site] ([None] = the
    primary); layers reach it through {!Sinks.stage}. *)
val note_stage : t -> ?site:string -> txn:int -> stage -> unit

(** [note_commit t ~txn ~hid ~commit_ts ~updates] records a primary commit
    carrying both ids: [txn] the MVCC id (the journey key) and [hid]
    the history id ([-1] when no history/watchdog is attached) — the id
    checker and watchdog witnesses anchor on. *)
val note_commit : t -> txn:int -> hid:int -> commit_ts:int -> updates:int -> unit

(** [note_read t ~site ~hid ~session ~snapshot ~fence] records a read-only
    transaction's snapshot claim at [site]: the snapshot seq it read at and
    the seq floor its fence/guarantee required ([-1] = unfenced). *)
val note_read :
  t -> site:string -> hid:int -> session:string -> snapshot:int -> fence:int -> unit

val note_crash : t -> site:string -> unit

(** [note_recovery t ~site ~seq] records a secondary recovering with its
    sequence bookkeeping reseeded to [seq]. *)
val note_recovery : t -> site:string -> seq:int -> unit

(** Events noted over the recorder's lifetime (≥ retained). *)
val events_noted : t -> int

(** Approximate resident bytes of the recorder (arrays, interned names and
    live session labels) — the bounded-memory claim, deterministic. *)
val approx_bytes : t -> int

(** {2 Triggers} *)

(** [trigger t ~reason ()] captures the postmortem window (first trigger
    wins). [detail] is a human-readable description of the cause; [txns]
    the implicated transaction ids (history ids where they exist — watchdog
    and checker witnesses — otherwise MVCC ids). *)
val trigger : t -> ?detail:string -> ?txns:int list -> reason:string -> unit -> unit

val triggered : t -> bool
val trigger_reason : t -> string option

(** {2 Events} *)

(** One decoded flight event. [site = None] is the primary. *)
type event = { seq : int; time : float; site : string option; ev : ev }

and ev =
  | Commit of { txn : int; hid : int; commit_ts : int; updates : int }
  | Batched of { txn : int }
  | Shipped of { txn : int; updates : int }
  | Chan_fault of { txn : int; fault : string; record : string; ticks : int }
      (** [fault] is one of ["dropped"], ["duplicated"], ["delayed"]
          (with [ticks] of injected delay), ["retransmitted"] *)
  | Enqueued of { txn : int }
  | Refresh_start of { txn : int }
  | Refresh_commit of { txn : int; commit_ts : int }
  | Read of { hid : int; session : string; snapshot : int; fence : int }
  | Crash
  | Recovery of { seq : int }

(** {2 Live journeys} *)

(** Why {!journey} found no event. *)
type journey_error =
  | Evicted of { dropped : int }
      (** the ring has dropped [dropped] events and [txn] is no newer than
          the newest MVCC id it noted: its events, if any, are gone *)
  | Unknown  (** nothing was ever recorded for [txn] this epoch *)

(** [journey t ~txn] is update transaction [txn]'s retained events (keyed
    by MVCC id), oldest first: its primary commit, propagation, channel
    faults and per-site refresh, in causal order with non-decreasing
    [time]. Decodes the live ring, so it costs O(capacity). A journey whose
    oldest events were evicted comes back as its retained suffix. *)
val journey : t -> txn:int -> (event list, journey_error) result

(** MVCC ids with at least one retained event, ascending. *)
val txns : t -> int list

(** {2 Bundles} *)

(** A parsed postmortem bundle. *)
type bundle = {
  version : int;
  reason : string;
  detail : string;
  at : float;  (** trigger instant (virtual time) *)
  implicated : int list;
  window : event array;  (** oldest first; [seq] globally numbered *)
  dropped : int;  (** events evicted from the ring before the window *)
  commits : int;  (** primary commits noted over the whole run *)
  horizons : (string * int) list;
      (** per-site visibility horizon at the trigger instant: ["primary"]
          maps to the latest primary commit ts, each secondary to its
          seq(DBsec); sorted by site name *)
  config : Json.t;  (** the reproducing config+seed, verbatim *)
}

(** [bundle_json t ~config ()] assembles the canonical (sorted-keys)
    postmortem bundle from the captured trigger — or, if nothing triggered,
    from the live ring under reason ["end-of-run"]. Deterministic: same
    seed, same bytes. *)
val bundle_json : t -> config:Json.t -> Json.t

(** {2 Replay} *)

(** [parse_bundle j] reads back a bundle {!bundle_json} built. Keys it
    does not read are ignored, so a bundle that still carries the
    [metrics] snapshot older reports embedded parses too. *)
val parse_bundle : Json.t -> (bundle, string) result

(** One replay line: time, site, event kind and details. *)
val pp_event : Format.formatter -> event -> unit

(** Window events with [time <= vt], oldest first. *)
val events_until : bundle -> vt:float -> event list

(** Window events mentioning transaction [id] (as MVCC id or history id),
    oldest first. *)
val txn_events : bundle -> id:int -> event list

(** [horizons_at b ~vt] is each site's visible snapshot horizon at instant
    [vt], reconstructed from the window: ["primary"] at the newest commit
    ts ≤ [vt], each secondary at its newest refresh-commit ≤ [vt]. Sites
    with no window event by [vt] report [-1] (unknown before the window).
    Sorted by site name. *)
val horizons_at : bundle -> vt:float -> (string * int) list

(** The concrete interleaving of the implicated transactions: every window
    event belonging to an implicated id (directly, or through the MVCC ids
    its commits tie to), oldest first. *)
val witness_events : bundle -> event list

(** [diff a b] is the first divergence between two bundles' windows:
    [None] when both retain identical event sequences, otherwise
    [Some (i, ea, eb)] — the first differing window index with each side's
    event ([None] = that window ended early). *)
val diff : bundle -> bundle -> (int * event option * event option) option
