(** Per-site freshness / propagation-lag report over a recorded
    {!Lsr_obs.Lineage} sink.

    One row per site, reducing the sink's raw samples through
    {!Lsr_stats.Histogram} (exact nearest-rank quantiles):
    - {e age}: snapshot age of each read-only transaction (virtual-time age
      of the newest primary commit its snapshot reflected; 0 when caught
      up) — p50/p95/p99;
    - {e missed}: committed-but-unapplied primary transactions per read —
      mean and max;
    - {e lag}: refresh commit time minus primary commit time per refreshed
      transaction — p50/p95/p99.

    Rows come out sorted by site name and all floats use the canonical
    {!Lsr_obs.Json.number} form, so the report is byte-identical across
    same-seed runs (the [freshness] section of {!Run_report}).

    A site with no samples in a section (zero reads, or zero refreshes) gets
    explicit zero quantiles for that section — never the quantile of an
    empty histogram — and the table renders "-" for those cells. The JSON is
    null-free by construction: every numeric field is clamped finite before
    serialization. *)

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

(** One row per {!Lsr_obs.Lineage.sites} entry, in that (sorted) order. *)
val of_lineage : Lsr_obs.Lineage.t -> row list

(** Plain-text table ({!Lsr_stats.Table_fmt}). *)
val render : row list -> string

(** [{"sites": [row, ...]}], one object per row in the given order. *)
val to_json : row list -> Lsr_obs.Json.t
