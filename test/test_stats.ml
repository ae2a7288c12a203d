(* Tests for the statistics package (lsr_stats): confidence intervals and
   table rendering; and for the bounded log-linear histogram
   (Lsr_obs.Histogram) that every reported quantile comes from. *)

open Lsr_stats
module Histogram = Lsr_obs.Histogram

let check_bool = Alcotest.(check bool)

let test_t_critical_values () =
  Alcotest.(check (float 1e-3)) "df=1" 12.706 (Confidence.t_critical ~df:1);
  Alcotest.(check (float 1e-3)) "df=4 (5 runs)" 2.776 (Confidence.t_critical ~df:4);
  Alcotest.(check (float 1e-3)) "df=30" 2.042 (Confidence.t_critical ~df:30);
  Alcotest.(check (float 1e-3)) "df=40" 2.021 (Confidence.t_critical ~df:40);
  Alcotest.(check (float 1e-3)) "df=60" 2.000 (Confidence.t_critical ~df:60);
  Alcotest.(check (float 1e-3)) "df=100" 1.984 (Confidence.t_critical ~df:100);
  Alcotest.(check (float 1e-3)) "df=120" 1.980 (Confidence.t_critical ~df:120);
  Alcotest.(check (float 1e-3)) "df=10000 ~ normal" 1.96
    (Confidence.t_critical ~df:10_000)

let test_t_critical_monotone () =
  (* The quantile decreases in df everywhere — in particular there is no
     cliff at the dense-table edge (the old code jumped 2.042 -> 1.96 at
     df = 31) — and stays above the normal 1.96 limit. *)
  for df = 1 to 1_000 do
    let here = Confidence.t_critical ~df and next = Confidence.t_critical ~df:(df + 1) in
    if next > here +. 1e-12 then
      Alcotest.failf "t_critical increased from df=%d (%.6f) to df=%d (%.6f)"
        df here (df + 1) next;
    if df >= 30 && here -. next > 0.005 then
      Alcotest.failf "cliff of %.4f between df=%d and df=%d" (here -. next) df
        (df + 1);
    check_bool "above normal limit" true (here > 1.96)
  done

let test_t_critical_invalid () =
  Alcotest.check_raises "df=0" (Invalid_argument "Confidence.t_critical: df < 1")
    (fun () -> ignore (Confidence.t_critical ~df:0))

let test_interval_of_known_samples () =
  (* Five samples with mean 10 and sample stddev 1: hw = 2.776 / sqrt 5. *)
  let i = Confidence.of_samples [ 9.; 9.5; 10.; 10.5; 11. ] in
  Alcotest.(check (float 1e-9)) "mean" 10. i.Confidence.mean;
  Alcotest.(check int) "n" 5 i.Confidence.n;
  let stddev = sqrt (2.5 /. 4.) in
  Alcotest.(check (float 1e-6)) "half width"
    (2.776 *. stddev /. sqrt 5.)
    i.Confidence.half_width

let test_interval_singleton () =
  let i = Confidence.of_samples [ 3.5 ] in
  Alcotest.(check (float 0.)) "mean" 3.5 i.Confidence.mean;
  Alcotest.(check (float 0.)) "zero width" 0. i.Confidence.half_width

let test_interval_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Confidence.of_samples: empty sample list") (fun () ->
      ignore (Confidence.of_samples []))

let test_interval_constant_samples () =
  let i = Confidence.of_samples [ 2.; 2.; 2. ] in
  Alcotest.(check (float 0.)) "zero width for constant" 0. i.Confidence.half_width

let test_table_render_alignment () =
  let rendered =
    Table_fmt.render ~header:[ "x"; "value" ]
      [ [ "1"; "10.5" ]; [ "100"; "7" ] ]
  in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines are the same width. *)
  let widths = List.map String.length lines in
  check_bool "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_ragged_rows () =
  let rendered = Table_fmt.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  check_bool "no crash on ragged rows" true (String.length rendered > 0)

let test_float_cell () =
  Alcotest.(check string) "integral trims" "5" (Table_fmt.float_cell 5.0);
  Alcotest.(check string) "decimals keep" "5.25" (Table_fmt.float_cell 5.25);
  Alcotest.(check string) "inf clamped" "n/a" (Table_fmt.float_cell infinity);
  Alcotest.(check string) "-inf clamped" "n/a"
    (Table_fmt.float_cell neg_infinity);
  Alcotest.(check string) "nan clamped" "n/a" (Table_fmt.float_cell nan)

(* --- Histogram ------------------------------------------------------------- *)

(* A bucket midpoint is within relative error alpha = 1/128 of every sample
   in the bucket, and exactly 0 for the zero bucket. *)
let alpha = 1. /. 128.

let within_alpha ~exact est =
  if exact = 0. then est = 0. else Float.abs (est -. exact) <= alpha *. exact

let check_near msg exact est =
  if not (within_alpha ~exact est) then
    Alcotest.failf "%s: %g is not within 1/128 of %g" msg est exact

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check (float 0.)) "sum" 5050. (Histogram.sum h);
  check_near "median" 50. (Histogram.quantile h 0.5);
  check_near "p95" 95. (Histogram.quantile h 0.95);
  check_near "p99" 99. (Histogram.quantile h 0.99);
  check_near "q=0 is min" 1. (Histogram.quantile h 0.);
  check_near "q=1 is max" 100. (Histogram.quantile h 1.)

let test_histogram_unsorted_input () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 5.; 1.; 9.; 3.; 7. ];
  check_near "median of odd set" 5. (Histogram.quantile h 0.5);
  Histogram.record h 11.;
  check_near "max updates" 11. (Histogram.quantile h 1.)

let check_quantiles msg h qs expected =
  List.iter
    (fun q -> Alcotest.(check (float 0.)) msg expected (Histogram.quantile h q))
    qs

let test_histogram_empty_and_zero () =
  let h = Histogram.create () in
  check_quantiles "empty quantile" h [ 0.; 0.5; 1. ] 0.;
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  List.iter (Histogram.record h) [ 0.; -0.; 0.; 0. ];
  check_quantiles "all-zero quantile" h [ 0.; 0.25; 0.5; 0.99; 1. ] 0.;
  Alcotest.(check int) "zeros count" 4 (Histogram.count h)

(* Outside [2^-40, 2^40) samples count in the first or last bucket; NaN
   counts as zero. *)
let test_histogram_clamps () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ nan; 1e-15; 2e15 ];
  Alcotest.(check (float 0.)) "NaN in the zero bucket" 0.
    (Histogram.quantile h 0.);
  Alcotest.(check (float 0.)) "tiny in the first bucket"
    (Float.ldexp (1. +. (1. /. 128.)) (-40))
    (Histogram.quantile h 0.5);
  Alcotest.(check (float 0.)) "huge in the last bucket"
    (Float.ldexp (2. -. (1. /. 128.)) 39)
    (Histogram.quantile h 1.)

let test_histogram_bad_q () =
  let h = Histogram.create () in
  List.iter
    (fun q ->
      Alcotest.check_raises (Printf.sprintf "q = %g" q)
        (Invalid_argument "Histogram.quantile: q outside [0, 1]") (fun () ->
          ignore (Histogram.quantile h q)))
    [ 1.5; -0.1; nan ]

(* Samples spanning 2^-30 to 2^30, after a block of exact zeros. *)
let gen_samples =
  QCheck.Gen.(
    map2
      (fun zeros xs -> List.init zeros (fun _ -> 0.) @ xs)
      (int_range 0 10)
      (list_size (int_range 1 50)
         (map2 Float.ldexp (float_range 1. 2.) (int_range (-30) 30))))

let prop_histogram_matches_sorted_list =
  QCheck.Test.make
    ~name:"quantile = nearest rank of sorted samples, within 1/128" ~count:500
    QCheck.(
      pair (make ~print:Print.(list float) gen_samples) (float_range 0. 1.))
    (fun (xs, q) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = List.sort Float.compare xs in
      let n = List.length xs in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      within_alpha ~exact:(List.nth sorted (rank - 1)) (Histogram.quantile h q)
      && Histogram.count h = n
      && Histogram.sum h = List.fold_left ( +. ) 0. xs)

(* Pre-boxed samples across the whole range (zero, both clamps, NaN), so the
   loops below allocate nothing of their own. *)
let spread = [ 0.; 1e-15; 3.5e-4; 0.02; 1.; 7.25; 130.; 4e5; 2e15; nan ]

let rec record_from h n = function
  | [] -> if n > 0 then record_from h n spread
  | x :: rest ->
    if n > 0 then begin
      Histogram.record h x;
      record_from h (n - 1) rest
    end

let record_n h n = record_from h n spread

(* Neither heap grows: an exact sample store would allocate its growing
   arrays directly on the major heap. *)
let test_histogram_record_allocates_nothing () =
  let h = Histogram.create () in
  Histogram.record h 1.;
  let _, _, major_before = Gc.counters () in
  let before = Gc.minor_words () in
  record_n h 1_000_000;
  let words = Gc.minor_words () -. before in
  let _, _, major_after = Gc.counters () in
  Alcotest.(check (float 0.)) "minor words for 1e6 records" 0. words;
  Alcotest.(check (float 0.)) "major words for 1e6 records" 0.
    (major_after -. major_before)

let test_histogram_fixed_memory () =
  let h = Histogram.create () in
  record_n h 10;
  let small = Obj.reachable_words (Obj.repr h) in
  record_n h 1_000_000;
  Alcotest.(check int) "reachable words after 1e6 samples" small
    (Obj.reachable_words (Obj.repr h))

let () =
  Alcotest.run "lsr_stats"
    [
      ( "confidence",
        [
          Alcotest.test_case "t critical values" `Quick test_t_critical_values;
          Alcotest.test_case "t critical monotone" `Quick
            test_t_critical_monotone;
          Alcotest.test_case "t critical invalid" `Quick test_t_critical_invalid;
          Alcotest.test_case "interval of known samples" `Quick
            test_interval_of_known_samples;
          Alcotest.test_case "singleton" `Quick test_interval_singleton;
          Alcotest.test_case "empty raises" `Quick test_interval_empty;
          Alcotest.test_case "constant samples" `Quick
            test_interval_constant_samples;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "unsorted input" `Quick test_histogram_unsorted_input;
          Alcotest.test_case "empty/all-zero" `Quick
            test_histogram_empty_and_zero;
          Alcotest.test_case "bad q" `Quick test_histogram_bad_q;
          QCheck_alcotest.to_alcotest prop_histogram_matches_sorted_list;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "record allocates nothing" `Quick
            test_histogram_record_allocates_nothing;
          Alcotest.test_case "fixed memory" `Quick test_histogram_fixed_memory;
          Alcotest.test_case "out-of-range clamps" `Quick test_histogram_clamps;
        ] );
      ( "table_fmt",
        [
          Alcotest.test_case "alignment" `Quick test_table_render_alignment;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "float cell" `Quick test_float_cell;
        ] );
    ]
