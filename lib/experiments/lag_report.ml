open Lsr_stats
module Obs = Lsr_obs.Obs
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

let suffix = ".refresh_lag"

(* [Obs.hist_quantile] is 0 on an empty histogram, so a site with no samples
   in a section gets explicit zero quantiles there. *)
let row_of_site obs site =
  let age = Obs.histogram obs (site ^ ".read_age") in
  let missed = Obs.histogram obs (site ^ ".read_missed") in
  let lag = Obs.histogram obs (site ^ suffix) in
  let reads = Obs.hist_count age in
  {
    site;
    reads;
    age_p50 = Obs.hist_quantile age 0.5;
    age_p95 = Obs.hist_quantile age 0.95;
    age_p99 = Obs.hist_quantile age 0.99;
    missed_mean =
      (if reads = 0 then 0. else Obs.hist_sum missed /. float_of_int reads);
    missed_max =
      int_of_float (Obs.gauge_peak (Obs.gauge obs (site ^ ".missed_commits")));
    refreshes = Obs.hist_count lag;
    lag_p50 = Obs.hist_quantile lag 0.5;
    lag_p95 = Obs.hist_quantile lag 0.95;
    lag_p99 = Obs.hist_quantile lag 0.99;
  }

let of_obs obs =
  Obs.names obs
  |> List.filter (String.ends_with ~suffix)
  |> List.map (fun name -> row_of_site obs (Filename.chop_suffix name suffix))

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
  (* [Json.to_string] prints non-finite floats as [null]; clamp here so the lag
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
