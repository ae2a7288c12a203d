(** Per-site freshness / propagation-lag report over the per-site
    instruments [Replica_set] keeps in an {!Lsr_obs.Obs} registry: per
    site, the snapshot age of each read-only transaction (virtual-time age
    of the newest primary commit its snapshot reflected; 0 when caught up),
    the committed-but-unapplied primary transactions it missed, and each
    refresh's lag behind its primary commit.

    Counts, the missed mean and the missed max are exact; age and lag
    quantiles are {!Lsr_obs.Obs.hist_quantile} estimates, within relative
    error 1/128 of the exact nearest-rank value. Rows come out sorted by
    site name and floats use the canonical {!Lsr_obs.Json.to_string} form, so
    the report is byte-identical across same-seed runs (the [freshness]
    section of {!Run_report}). A registry spanning several runs reports
    their union.

    A site with no samples in a section (zero reads, or zero refreshes) gets
    zero quantiles there, and the table renders "-" for those cells. The
    JSON is null-free: every numeric field is clamped finite. *)

type row = {
  site : string;
  reads : int;
  age_p50 : float;
  age_p95 : float;
  age_p99 : float;
  missed_mean : float;
  missed_max : int;
  refreshes : int;
  lag_p50 : float;
  lag_p95 : float;
  lag_p99 : float;
}

(** One row per site with a [<site>.refresh_lag] instrument in the
    registry (every site [Replica_set] sampled), sorted by site name. *)
val of_obs : Lsr_obs.Obs.t -> row list

(** Plain-text table ({!Lsr_stats.Table_fmt}). *)
val render : row list -> string

(** [{"sites": [row, ...]}], one object per row in the given order. *)
val to_json : row list -> Lsr_obs.Json.t
