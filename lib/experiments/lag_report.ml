open Lsr_stats
module Lineage = Lsr_obs.Lineage
module Json = Lsr_obs.Json

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

let row_of_site lineage site =
  let fresh = Lineage.freshness_samples lineage ~site in
  let lags = Lineage.refresh_lags lineage ~site in
  let age_hist = Histogram.create () in
  let lag_hist = Histogram.create () in
  let missed_sum = ref 0 in
  let missed_max = ref 0 in
  List.iter
    (fun f ->
      Histogram.record age_hist f.Lineage.age;
      missed_sum := !missed_sum + f.Lineage.missed;
      if f.Lineage.missed > !missed_max then missed_max := f.Lineage.missed)
    fresh;
  List.iter (Histogram.record lag_hist) lags;
  let reads = List.length fresh in
  let refreshes = List.length lags in
  (* A site with no samples gets explicit zero quantiles, never a quantile of
     an empty histogram: the row must stay finite on its own (the table
     renders "-" for the empty sections, and the JSON must stay null-free
     without relying on downstream clamping). *)
  let quantile hist n q = if n = 0 then 0. else q hist in
  {
    site;
    reads;
    age_p50 = quantile age_hist reads Histogram.median;
    age_p95 = quantile age_hist reads Histogram.p95;
    age_p99 = quantile age_hist reads Histogram.p99;
    missed_mean =
      (if reads = 0 then 0. else float_of_int !missed_sum /. float_of_int reads);
    missed_max = !missed_max;
    refreshes;
    lag_p50 = quantile lag_hist refreshes Histogram.median;
    lag_p95 = quantile lag_hist refreshes Histogram.p95;
    lag_p99 = quantile lag_hist refreshes Histogram.p99;
  }

let of_lineage lineage =
  List.map (row_of_site lineage) (Lineage.sites lineage)

let header =
  [
    "site"; "reads"; "age p50"; "age p95"; "age p99"; "missed mean";
    "missed max"; "refreshes"; "lag p50"; "lag p95"; "lag p99";
  ]

let render rows =
  (* Sections with no samples render "-" rather than a misleading 0.00: an
     empty-site row is explicit in the table. *)
  let cell n f = if n = 0 then "-" else Table_fmt.float_cell f in
  let cells r =
    [
      r.site;
      string_of_int r.reads;
      cell r.reads r.age_p50;
      cell r.reads r.age_p95;
      cell r.reads r.age_p99;
      cell r.reads r.missed_mean;
      string_of_int r.missed_max;
      string_of_int r.refreshes;
      cell r.refreshes r.lag_p50;
      cell r.refreshes r.lag_p95;
      cell r.refreshes r.lag_p99;
    ]
  in
  Table_fmt.render ~header (List.map cells rows)

let to_json rows =
  (* [Json.number] prints non-finite floats as [null]; clamp here so the lag
     report is null-free by construction (consumers index it numerically). *)
  let num f = Json.Num (if Float.is_finite f then f else 0.) in
  let row_json r =
    Json.Obj
      [
        ("site", Json.Str r.site);
        ("reads", num (float_of_int r.reads));
        ("age_p50", num r.age_p50);
        ("age_p95", num r.age_p95);
        ("age_p99", num r.age_p99);
        ("missed_mean", num r.missed_mean);
        ("missed_max", num (float_of_int r.missed_max));
        ("refreshes", num (float_of_int r.refreshes));
        ("lag_p50", num r.lag_p50);
        ("lag_p95", num r.lag_p95);
        ("lag_p99", num r.lag_p99);
      ]
  in
  Json.Obj [ ("sites", Json.Arr (List.map row_json rows)) ]
