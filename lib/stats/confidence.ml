type interval = {
  mean : float;
  half_width : float;
  n : int;
}

(* Two-sided 97.5% quantiles of the Student t distribution, df = 1..40. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
    2.040; 2.037; 2.035; 2.032; 2.030; 2.028; 2.026; 2.024; 2.023; 2.021;
  |]

(* Sparse anchors beyond the dense table, linearly interpolated. *)
let t_sparse = [| (40, 2.021); (60, 2.000); (80, 1.990); (100, 1.984); (120, 1.980) |]

let t_critical ~df =
  if df < 1 then invalid_arg "Confidence.t_critical: df < 1";
  if df <= Array.length t_table then t_table.(df - 1)
  else if df >= 120 then
    (* Approach the normal quantile as 1/df, anchored at the df = 120 entry
       (the usual "t is ~normal beyond 120" cutoff, without a 0.02 cliff). *)
    1.96 +. ((1.980 -. 1.96) *. 120. /. float_of_int df)
  else begin
    (* 40 < df < 120: interpolate between the bracketing sparse anchors. *)
    let rec find i =
      let lo_df, lo_t = t_sparse.(i) and hi_df, hi_t = t_sparse.(i + 1) in
      if df <= hi_df then
        let frac = float_of_int (df - lo_df) /. float_of_int (hi_df - lo_df) in
        lo_t +. (frac *. (hi_t -. lo_t))
      else find (i + 1)
    in
    find 0
  end

let of_samples = function
  | [] -> invalid_arg "Confidence.of_samples: empty sample list"
  | [ x ] -> { mean = x; half_width = 0.; n = 1 }
  | xs ->
    let tally = Lsr_sim.Stat.create () in
    List.iter (Lsr_sim.Stat.record tally) xs;
    let n = Lsr_sim.Stat.count tally in
    let sem = Lsr_sim.Stat.stddev tally /. sqrt (float_of_int n) in
    {
      mean = Lsr_sim.Stat.mean tally;
      half_width = t_critical ~df:(n - 1) *. sem;
      n;
    }
