(** Bottleneck analysis over one run's queueing telemetry.

    Two views of the same {!Sim_system.outcome}:

    - a {e resource ranking}: every site resource sorted by utilization ρ
      (ties by name), with its share of all queueing wait, time-average
      queue length L, transaction throughput λ and Little's-law gap — the
      head of the list is the dominant (saturating) resource;
    - a {e residence-time breakdown} per transaction class (read / update):
      the mean response time split into measured or by-construction
      components — session-block wait (reads held for the strong-session
      read floor), pure service demand (mean operations per transaction ×
      per-operation service time), retry cost (updates: wasted aborted
      work amortized over completions) — with the unexplained remainder
      attributed to resource queueing.

    Deterministic by construction (pure arithmetic over the outcome, sorted
    ranking, canonical {!Lsr_obs.Json.to_string} floats), so the JSON export
    is byte-identical across same-seed runs (the run report's per-run
    [bottleneck] section). *)

type rank = {
  bn_site : string;
  bn_utilization : float;  (** ρ, exact at the read instant *)
  bn_wait_share : float;
      (** this resource's total queueing wait over the sum across all
          resources (0 when nothing ever waited) *)
  bn_queue_mean : float;  (** L, time-average jobs present *)
  bn_throughput : float;  (** λ, transactions served per virtual second *)
  bn_littles_gap : float;  (** relative [|L − λ·W|] self-check *)
}

type component = {
  comp_name : string;  (** ["session-block" | "service" | "retry" | "queueing"] *)
  comp_seconds : float;  (** mean seconds per transaction of this class *)
  comp_share : float;  (** fraction of the class's mean response time *)
}

type breakdown = {
  br_class : string;  (** ["read"] or ["update"] *)
  br_rt_mean : float;
  br_components : component list;  (** sums to [br_rt_mean]; queueing last *)
}

type t = {
  dominant : string;  (** site name of the highest-utilization resource *)
  ranking : rank list;  (** sorted by utilization, descending *)
  breakdowns : breakdown list;  (** read first, then update *)
}

(** [analyze params outcome] reduces one run. [params] supplies the
    by-construction service demand (transaction size × operation cost). *)
val analyze : Lsr_workload.Params.t -> Sim_system.outcome -> t

(** Human-readable report: dominant line, ranking table, one breakdown
    line per class. [?tag] labels the dominant line (sweep points). *)
val render : ?tag:string -> t -> string

(** [{"dominant": ..., "resources": [...], "classes": [...]}] — the
    per-run [bottleneck] section of {!Run_report}. *)
val to_json : t -> Lsr_obs.Json.t
