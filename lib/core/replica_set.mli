(** The replica-set core shared by the embedded {!System} and the simulator
    ([Lsr_experiments.Sim_system]): the primary and its propagator, the
    session manager, the primary commit clock, the {!History}, the optional
    {!Watchdog} with its flight-recorder trigger, and the observability
    {!Lsr_obs.Sinks}. Drivers keep how transactions execute and wait, and
    pass each transaction through the hooks below, which do its bookkeeping
    once: history ticks and ids, [seq(c)] and read floors, the commit clock,
    per-site freshness instruments, flight events, watchdog tokens and the
    history record.

    Ordering rules the hooks encode:
    - a history tick and its watchdog hook happen in one hook call, so no
      scheduler yield separates them;
    - the flight recorder notes a commit before the watchdog judges it, so a
      capture that commit triggers contains its witness;
    - commits reach the watchdog in commit-timestamp order, provided the
      driver calls {!finish_update} with no yield after the primary commit.

    With no watchdog, history, registry or flight recorder attached, the
    hooks allocate nothing.

    Freshness goes to an attached {!Lsr_obs.Obs} registry as four
    instruments per secondary, interned together on the site's first
    sample: histograms [<site>.read_age], [<site>.read_missed] and
    [<site>.refresh_lag], and the gauge [<site>.missed_commits], whose peak
    is the exact maximum of [read_missed] ([Lag_report] reads them). *)

open Lsr_storage

type t

(** [create ~sinks ~record_history ~watchdog ~sites guarantee] is the core
    of a system with [sites] secondaries. [now] is the simulator's virtual
    clock: the flight recorder is bound to it and starts a new epoch.
    Without it the time axis is the history event counter, so [Max_age]
    fences, freshness samples and refresh lags count history events. [record_history] keeps every
    finished transaction; [watchdog] attaches an online checker whose first
    alert triggers the flight recorder's capture. *)
val create :
  ?now:(unit -> float) ->
  ship_aborted:bool ->
  sinks:Lsr_obs.Sinks.t ->
  record_history:bool ->
  watchdog:bool ->
  sites:int ->
  Session.guarantee ->
  t

val primary : t -> Primary.t
val propagator : t -> Propagation.t
val sessions : t -> Session.t
val clock : t -> Session.clock
val history : t -> History.t
val watchdog : t -> Watchdog.t option
val sinks : t -> Lsr_obs.Sinks.t

(** The current instant on the core's time axis. *)
val now : t -> float

(** A history is recorded or a watchdog attached: drivers must collect the
    values their transactions read. *)
val tracking : t -> bool

(** {2 Secondaries} *)

(** [secondary t i] is a fresh secondary ["secondary-<i>"] on the core's
    sinks, restored from [backup] when given. Each refresh commit calls
    [on_refresh_commit], records the commit's refresh lag in
    [<site>.refresh_lag] when a registry is attached, then advances the watchdog's horizon for
    the site. *)
val secondary :
  ?on_refresh_commit:(Timestamp.t -> unit) -> ?backup:string -> t -> int ->
  Secondary.t

val crashed : t -> int -> unit

(** Secondary [i] recovered with [seq(DBsec)] reseeded to [seq]. *)
val recovered : t -> int -> seq:Timestamp.t -> unit

(** {2 Transactions} *)

(** A transaction between its begin and finish hooks. *)
type txn

(** An update of [session] starts; one token serves every retried attempt. *)
val begin_update : t -> session:string -> txn

(** The update finished with [outcome]. A commit advances [seq(c)] and the
    commit clock; an abort is recorded at snapshot zero and pins nothing.
    [reads] are ignored unless {!tracking}. *)
val finish_update :
  t -> txn -> session:string -> reads:(string * string option) list ->
  _ Primary.outcome -> unit

(** A read-only transaction of [session] starts at [site] with [snapshot],
    its seq(DBsec); the session's read floor rises as the guarantee and
    fence require. With a registry attached, the snapshot's freshness on
    the commit clock is sampled into the site's instruments. *)
val begin_read :
  ?fence:Session.fence -> t -> session:string -> site:string ->
  snapshot:Timestamp.t -> txn

(** The read finished. [read_at] is when its fence resolved its horizon;
    [fence_seq] is the seq floor it was held to ([-1] when unfenced). *)
val finish_read :
  ?fence:Session.fence -> t -> txn -> session:string -> site:string ->
  snapshot:Timestamp.t -> read_at:float -> fence_seq:int ->
  reads:(string * string option) list -> unit
