(* Tests for the observability substrate (lsr_obs): instrument registry
   semantics, log-linear histogram quantiles, the null instance, and the two
   JSON exporters (validated with the library's own parser). *)

open Lsr_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json ------------------------------------------------------------------- *)

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_json_roundtrip () =
  let cases =
    [
      "null"; "true"; "false"; "0"; "-12.5"; "1e-06"; "\"hi\"";
      "{\"a\":[1,2,{\"b\":\"x\\n\"}],\"c\":null}"; "[]"; "{}";
    ]
  in
  List.iter
    (fun s ->
      let j = parse_ok s in
      (* Re-emitting and re-parsing must be a fixed point. *)
      let again = Json.to_string j in
      check_bool ("roundtrip " ^ s) true (parse_ok again = j))
    cases

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parse %S should have failed" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_number_formatting () =
  let number f = Json.to_string (Json.Num f) in
  check_string "integral" "3" (number 3.);
  check_string "nan maps to null" "null" (number nan);
  check_string "inf maps to null" "null" (number infinity)

let test_json_escape () =
  let s = Json.to_string (Json.Str "a\"b\\c\nd\tе") in
  (match Json.parse s with
  | Ok (Json.Str v) -> check_string "escape roundtrip" "a\"b\\c\nd\tе" v
  | Ok _ | Error _ -> Alcotest.fail "escaped string did not parse back");
  check_bool "quoted" true (String.length s > 2 && s.[0] = '"')

(* --- Registry --------------------------------------------------------------- *)

let test_counter_interning () =
  let t = Obs.create () in
  let a = Obs.counter t "x.hits" and b = Obs.counter t "x.hits" in
  Obs.incr a;
  Obs.incr ~by:4 b;
  (* Same name, same underlying instrument: updates aggregate. *)
  check_int "shared count" 5 (Obs.count a);
  check_int "shared count (other handle)" 5 (Obs.count b);
  let other = Obs.counter t "y.hits" in
  check_int "distinct name isolated" 0 (Obs.count other)

let test_kind_mismatch_rejected () =
  let t = Obs.create () in
  ignore (Obs.counter t "m");
  check_bool "gauge over counter raises" true
    (try
       ignore (Obs.gauge t "m");
       false
     with Invalid_argument _ -> true)

let test_gauge_last_and_peak () =
  let t = Obs.create () in
  let g = Obs.gauge t "depth" in
  List.iter (Obs.set_gauge g) [ 3.; 9.; 2. ];
  Alcotest.(check (float 0.)) "last" 2. (Obs.gauge_value g);
  Alcotest.(check (float 0.)) "peak" 9. (Obs.gauge_peak g)

let test_histogram_observations () =
  let t = Obs.create () in
  let h = Obs.histogram t "rt" in
  List.iter (Obs.observe h) [ 0.5; 1.5; 1000. ];
  check_int "count" 3 (Obs.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 1002. (Obs.hist_sum h)

let test_null_is_inert () =
  let t = Obs.null in
  check_bool "disabled" false (Obs.enabled t);
  let c = Obs.counter t "anything" in
  Obs.incr ~by:1000 c;
  check_int "counter stays 0" 0 (Obs.count c);
  let g = Obs.gauge t "g" in
  Obs.set_gauge g 5.;
  Alcotest.(check (float 0.)) "gauge stays 0" 0. (Obs.gauge_value g);
  let h = Obs.histogram t "h" in
  Obs.observe h 1.;
  check_int "histogram stays empty" 0 (Obs.hist_count h);
  (* Null never raises on name reuse either: interning is a no-op. *)
  ignore (Obs.gauge t "anything")

(* --- Exporters -------------------------------------------------------------- *)

let num_exn = function
  | Json.Num f -> f
  | _ -> Alcotest.fail "expected number"

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let test_metrics_json_shape () =
  let t = Obs.create () in
  Obs.incr ~by:7 (Obs.counter t "a.count");
  Obs.set_gauge (Obs.gauge t "b.depth") 3.;
  Obs.observe (Obs.histogram t "c.rt") 0.25;
  let j = parse_ok (Json.to_string (Obs.metrics_json t)) in
  let counters = member_exn "counters" j in
  Alcotest.(check (float 0.)) "counter value" 7.
    (num_exn (member_exn "a.count" counters));
  let gauge = member_exn "b.depth" (member_exn "gauges" j) in
  Alcotest.(check (float 0.)) "gauge last" 3. (num_exn (member_exn "last" gauge));
  let hist = member_exn "c.rt" (member_exn "histograms" j) in
  Alcotest.(check (float 0.)) "hist count" 1. (num_exn (member_exn "count" hist));
  Alcotest.(check (float 0.)) "hist mean" 0.25 (num_exn (member_exn "mean" hist));
  (* The single sample lives in the bucket [0.25, 0.25 * (1 + 1/64)), and
     every quantile over one observation is that bucket's midpoint. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.)) ("hist " ^ q) (0.25 *. (1. +. (1. /. 128.)))
        (num_exn (member_exn q hist)))
    [ "p50"; "p95"; "p99" ];
  (* Buckets are [upper_bound, count] pairs covering every observation. *)
  match member_exn "buckets" hist with
  | Json.Arr [ Json.Arr [ Json.Num upper; Json.Num n ] ] ->
    Alcotest.(check (float 0.)) "bucket upper bound"
      (0.25 *. (1. +. (1. /. 64.)))
      upper;
    Alcotest.(check (float 0.)) "bucket count" 1. n
  | _ -> Alcotest.fail "buckets is not one [upper_bound, count] pair"

let test_metrics_json_deterministic () =
  let build () =
    let t = Obs.create () in
    (* Intern in one order ... *)
    Obs.incr (Obs.counter t "z.last");
    Obs.incr (Obs.counter t "a.first");
    t
  and build_rev () =
    let t = Obs.create () in
    (* ... or the other: the export sorts by name, so bytes agree. *)
    Obs.incr (Obs.counter t "a.first");
    Obs.incr (Obs.counter t "z.last");
    t
  in
  check_string "insertion order irrelevant"
    (Json.to_string (Obs.metrics_json (build ())))
    (Json.to_string (Obs.metrics_json (build_rev ())))

let test_write_files () =
  let t = Obs.create () in
  Obs.incr (Obs.counter t "k");
  let dir = Filename.temp_file "lsr_obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let mf = Filename.concat dir "m.json" in
  Json.write_file ~file:mf (Obs.metrics_json t);
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  check_bool "metrics file parses" true (Result.is_ok (Json.parse (slurp mf)));
  Sys.remove mf; Sys.rmdir dir

(* --- Histogram quantiles ----------------------------------------------------- *)

(* The histogram keeps bucket counts only, so its quantile is the midpoint
   of the bucket holding the nearest-rank sample. Pin it against that exact
   sample, found by sorting the same samples: the midpoint must be within
   relative error 1/128 of it. *)
let test_hist_quantile_vs_exact () =
  let t = Obs.create () in
  let h = Obs.histogram t "q.rt" in
  let x = ref 123456789 in
  let samples =
    List.init 500 (fun _ ->
        (* Deterministic LCG spanning several orders of magnitude. *)
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        float_of_int ((!x mod 100_000) + 1) /. 100.)
  in
  List.iter (Obs.observe h) samples;
  let sorted = Array.of_list (List.sort Float.compare samples) in
  List.iter
    (fun q ->
      let est = Obs.hist_quantile h q in
      let rank = max 1 (int_of_float (Float.ceil (q *. 500.))) in
      let exact = sorted.(rank - 1) in
      check_bool
        (Printf.sprintf "q=%.2f est %g within 1/128 of exact %g" q est exact)
        true
        (Float.abs (est -. exact) <= exact /. 128.))
    [ 0.; 0.25; 0.5; 0.9; 0.95; 0.99; 1. ]

let test_hist_quantile_edges () =
  let t = Obs.create () in
  let h = Obs.histogram t "e.rt" in
  Alcotest.(check (float 0.)) "empty" 0. (Obs.hist_quantile h 0.5);
  Obs.observe h (-3.);
  (* Non-positive samples live in the zero bucket, reported as exactly 0. *)
  Alcotest.(check (float 0.)) "zero bucket" 0. (Obs.hist_quantile h 1.);
  List.iter
    (fun q ->
      check_bool (Printf.sprintf "q = %g rejected" q) true
        (try
           ignore (Obs.hist_quantile h q);
           false
         with Invalid_argument _ -> true))
    [ 1.5; nan ]

(* Pre-boxed samples, so the loop allocates nothing of its own. *)
let spread = [ 0.; 2e-6; 0.013; 0.4; 1.; 3.75; 60.; 9e3 ]

let rec observe_from h n = function
  | [] -> if n > 0 then observe_from h n spread
  | x :: rest ->
    if n > 0 then begin
      Obs.observe h x;
      observe_from h (n - 1) rest
    end

let test_observe_allocates_nothing () =
  let h = Obs.histogram (Obs.create ()) "a.rt" in
  Obs.observe h 1.;
  let before = Gc.minor_words () in
  observe_from h 1_000_000 spread;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1e6 observes" 0. words;
  check_int "all counted" 1_000_001 (Obs.hist_count h)

(* --- Per-transaction journeys (the flight ring) ------------------------------ *)

let test_journey_null_inert () =
  let f = Flight.null in
  Flight.note_stage f ~site:(Flight.intern f "sec-0") ~txn:1 Flight.Batched
    ~record:(-1) (-1);
  Flight.note_commit f ~txn:1 ~hid:1 ~commit_ts:5 ~updates:1;
  check_bool "not tracing" false (Flight.enabled f);
  check_int "no events" 0 (Flight.events_noted f);
  check_bool "no journey" true (Flight.journey f ~txn:1 = Error Flight.Unknown);
  check_bool "no txns" true (Flight.txns f = []);
  check_bool "no instruments" true (Obs.names Obs.null = [])

let test_journey () =
  let f = Flight.create () in
  check_bool "tracing" true (Flight.enabled f);
  Flight.note_commit f ~txn:7 ~hid:(-1) ~commit_ts:3 ~updates:2;
  Flight.note_commit f ~txn:8 ~hid:(-1) ~commit_ts:4 ~updates:1;
  let sec0 = Flight.intern f "sec-0" in
  Flight.note_stage f ~site:(-1) ~txn:7 Flight.Batched ~record:(-1) (-1);
  Flight.note_stage f ~site:(-1) ~txn:7 Flight.Shipped ~record:(-1) 2;
  Flight.note_stage f ~site:sec0 ~txn:7 Flight.Enqueued ~record:(-1) (-1);
  Flight.note_stage f ~site:sec0 ~txn:7 Flight.Refresh_started ~record:(-1)
    (-1);
  Flight.note_stage f ~site:sec0 ~txn:7 Flight.Refresh_committed ~record:(-1) 3;
  let j =
    match Flight.journey f ~txn:7 with
    | Ok j -> j
    | Error _ -> Alcotest.fail "txn 7 has no journey"
  in
  check_int "journey length" 6 (List.length j);
  (* The default (ordinal) clock stamps strictly increasing times. *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Flight.time < b.Flight.time && mono rest
    | [ _ ] | [] -> true
  in
  check_bool "monotone times" true (mono j);
  check_bool "starts at the primary commit" true
    (match j with
    | { Flight.ev = Flight.Commit { commit_ts = 3; updates = 2; _ }; site = None; _ }
      :: _ -> true
    | _ -> false);
  check_bool "txns sorted" true (Flight.txns f = [ 7; 8 ]);
  check_bool "journeys don't mix" true
    (Result.map List.length (Flight.journey f ~txn:8) = Ok 1)

let test_journey_json_deterministic () =
  let build () =
    let f = Flight.create () in
    Flight.note_commit f ~txn:1 ~hid:(-1) ~commit_ts:2 ~updates:1;
    let a = Flight.intern f "a" and b = Flight.intern f "b" in
    Flight.note_stage f ~site:b ~txn:1 Flight.Enqueued ~record:(-1) (-1);
    Flight.note_stage f ~site:a ~txn:1 Flight.Enqueued ~record:(-1) (-1);
    Flight.note_stage f ~site:b ~txn:1 Flight.Refresh_committed ~record:(-1) 2;
    Flight.note_stage f ~site:a ~txn:1 Flight.Refresh_committed ~record:(-1) 2;
    Json.to_string (Flight.bundle_json f ~config:(Json.Obj []))
  in
  let s1 = build () and s2 = build () in
  check_string "same bytes across identical builds" s1 s2;
  let j = parse_ok s1 in
  Alcotest.(check (float 0.)) "commits" 1. (num_exn (member_exn "commits" j));
  (match member_exn "horizons" j with
  | Json.Obj ((first, _) :: _) ->
    (* Sites are sorted by name for deterministic output. *)
    check_string "sites sorted" "a" first
  | _ -> Alcotest.fail "horizons not a non-empty object")

(* A site's instruments outlive its replica: a crash and recovery keeps
   counting into the same counters, and the depth gauges keep the values the
   crashed replica last set until the recovered one moves them. *)
let test_recovery_keeps_instruments () =
  let module System = Lsr_core.System in
  let module Handle = Lsr_core.Handle in
  let obs = Obs.create () in
  let sys =
    System.create ~secondaries:2 ~obs ~guarantee:Lsr_core.Session.Weak ()
  in
  let c = System.connect sys ~secondary:0 "writer" in
  let put v =
    match System.update sys c (fun h -> Handle.put h "k" v) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  in
  let count name = Obs.count (Obs.counter obs name) in
  let gauge name =
    let g = Obs.gauge obs name in
    (Obs.gauge_value g, Obs.gauge_peak g)
  in
  let check_gauge tag name expected =
    Alcotest.(check (pair (float 0.) (float 0.))) tag expected (gauge name)
  in
  put "1";
  System.pump sys;
  put "2";
  put "3";
  ignore (System.propagate sys);
  check_int "started before the crash" 1 (count "secondary-1.refresh_started");
  check_gauge "queued before the crash" "secondary-1.update_queue_depth"
    (4., 4.);
  System.crash_secondary sys 1;
  System.recover_secondary sys 1;
  check_gauge "queue gauge after recovery" "secondary-1.update_queue_depth"
    (4., 4.);
  check_gauge "pending gauge after recovery" "secondary-1.pending_depth"
    (0., 1.);
  put "4";
  System.pump sys;
  check_int "started across the recovery" 2
    (count "secondary-1.refresh_started");
  check_int "the live site started all" 4 (count "secondary-0.refresh_started");
  check_gauge "queue gauge after the pump" "secondary-1.update_queue_depth"
    (0., 4.);
  check_gauge "pending gauge after the pump" "secondary-1.pending_depth"
    (0., 1.);
  (* Three pumps: the recovery's own poll found the log already shipped. *)
  check_int "polls" 3 (count "propagation.polls");
  check_int "records shipped" 8 (count "propagation.records_shipped");
  check_gauge "in flight" "propagation.in_flight" (0., 0.);
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (String.concat "; " es)

(* An export into a directory that does not exist yet must create it, not
   fail after the run: the file writer creates missing parents. *)
let test_write_creates_parents () =
  let base = Filename.temp_file "lsr_obs_deep" "" in
  Sys.remove base;
  let jf = List.fold_left Filename.concat base [ "a"; "b"; "r.json" ] in
  let f = Flight.create () in
  Flight.note_commit f ~txn:1 ~hid:(-1) ~commit_ts:1 ~updates:1;
  let doc = Flight.bundle_json f ~config:(Json.Obj []) in
  Json.write_file ~file:jf doc;
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  let text = slurp jf in
  check_string "canonical text plus newline" (Json.to_string doc ^ "\n") text;
  check_bool "file re-parses to the written document" true
    (Result.map Json.to_string (Json.parse text) = Ok (Json.to_string doc));
  Sys.remove jf;
  Sys.rmdir (Filename.dirname jf);
  Sys.rmdir (Filename.concat base "a");
  Sys.rmdir base

let () =
  Alcotest.run "lsr_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "number formatting" `Quick
            test_json_number_formatting;
          Alcotest.test_case "escape" `Quick test_json_escape;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter interning" `Quick test_counter_interning;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "gauge last/peak" `Quick test_gauge_last_and_peak;
          Alcotest.test_case "histogram" `Quick test_histogram_observations;
          Alcotest.test_case "null is inert" `Quick test_null_is_inert;
          Alcotest.test_case "recovery keeps a site's instruments" `Quick
            test_recovery_keeps_instruments;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics shape" `Quick test_metrics_json_shape;
          Alcotest.test_case "metrics deterministic" `Quick
            test_metrics_json_deterministic;
          Alcotest.test_case "write files" `Quick test_write_files;
          Alcotest.test_case "write creates parents" `Quick
            test_write_creates_parents;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "vs exact nearest-rank" `Quick
            test_hist_quantile_vs_exact;
          Alcotest.test_case "edge cases" `Quick test_hist_quantile_edges;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "null is inert" `Quick test_journey_null_inert;
          Alcotest.test_case "journey" `Quick test_journey;
          Alcotest.test_case "json deterministic" `Quick
            test_journey_json_deterministic;
        ] );
    ]
