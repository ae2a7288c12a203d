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
  check_string "integral" "3" (Json.number 3.);
  check_string "nan maps to null" "null" (Json.number nan);
  check_string "inf maps to null" "null" (Json.number infinity)

let test_json_escape () =
  let buf = Buffer.create 16 in
  Json.escape buf "a\"b\\c\nd\tе";
  let s = Buffer.contents buf in
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
  let sp = Obs.begin_span t ~track:"p/t" ~name:"s" ~now:0. in
  Obs.end_span t sp ~now:1.;
  Obs.instant t ~track:"p/t" ~name:"i" ~now:2.;
  check_int "no events" 0 (Obs.event_count t);
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

let test_trace_json_shape () =
  let t = Obs.create () in
  let sp = Obs.begin_span t ~track:"site-0/refresher" ~name:"apply" ~now:1.5 in
  Obs.end_span ~args:[ ("txn", "42") ] t sp ~now:2.5;
  Obs.instant t ~track:"primary/propagator" ~name:"propagate" ~now:3. ;
  let j = parse_ok (Obs.trace_json t) in
  match member_exn "traceEvents" j with
  | Json.Arr evs ->
    let ph e =
      match Json.member "ph" e with Some (Json.Str s) -> s | _ -> "?"
    in
    let spans = List.filter (fun e -> ph e = "X") evs in
    let instants = List.filter (fun e -> ph e = "i") evs in
    let metas = List.filter (fun e -> ph e = "M") evs in
    check_int "one complete span" 1 (List.length spans);
    check_int "one instant" 1 (List.length instants);
    (* process_name for site-0 and primary + thread_name for both tracks. *)
    check_int "four metadata events" 4 (List.length metas);
    let span = List.hd spans in
    Alcotest.(check (float 0.)) "ts in virtual us" 1.5e6
      (num_exn (member_exn "ts" span));
    Alcotest.(check (float 0.)) "dur in virtual us" 1e6
      (num_exn (member_exn "dur" span));
    (match Json.member "args" span with
    | Some args ->
      (match Json.member "txn" args with
      | Some (Json.Str v) -> check_string "span arg" "42" v
      | _ -> Alcotest.fail "txn arg missing")
    | None -> Alcotest.fail "args missing")
  | _ -> Alcotest.fail "traceEvents not an array"

let test_unclosed_span_dropped () =
  let t = Obs.create () in
  let _open_forever = Obs.begin_span t ~track:"p/t" ~name:"hang" ~now:0. in
  let sp = Obs.begin_span t ~track:"p/t" ~name:"done" ~now:0. in
  Obs.end_span t sp ~now:1.;
  let j = parse_ok (Obs.trace_json t) in
  match member_exn "traceEvents" j with
  | Json.Arr evs ->
    let completes =
      List.filter
        (fun e -> match Json.member "ph" e with
          | Some (Json.Str "X") -> true
          | _ -> false)
        evs
    in
    check_int "only the closed span exports" 1 (List.length completes)
  | _ -> Alcotest.fail "traceEvents not an array"

let test_write_files () =
  let t = Obs.create () in
  Obs.incr (Obs.counter t "k");
  let dir = Filename.temp_file "lsr_obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let mf = Filename.concat dir "m.json" and tf = Filename.concat dir "t.json" in
  Json.write_file ~file:mf (Obs.metrics_json t);
  Obs.write_trace t ~file:tf;
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  check_bool "metrics file parses" true (Result.is_ok (Json.parse (slurp mf)));
  check_bool "trace file parses" true (Result.is_ok (Json.parse (slurp tf)));
  Sys.remove mf; Sys.remove tf; Sys.rmdir dir

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

let sinks flight = { Sinks.obs = Obs.null; flight }

let test_journey_null_inert () =
  let s = Sinks.null in
  Sinks.stage s ~txn:1 Flight.Batched;
  Flight.note_commit s.Sinks.flight ~txn:1 ~hid:1 ~commit_ts:5 ~updates:1;
  check_bool "not tracing" false (Sinks.tracing s);
  check_int "no events" 0 (Flight.events_noted s.Sinks.flight);
  check_bool "no journey" true
    (Flight.journey s.Sinks.flight ~txn:1 = Error Flight.Unknown);
  check_bool "no txns" true (Flight.txns s.Sinks.flight = []);
  check_bool "no instruments" true (Obs.names s.Sinks.obs = [])

let test_journey () =
  let f = Flight.create () in
  let s = sinks f in
  check_bool "tracing" true (Sinks.tracing s);
  Flight.note_commit f ~txn:7 ~hid:(-1) ~commit_ts:3 ~updates:2;
  Flight.note_commit f ~txn:8 ~hid:(-1) ~commit_ts:4 ~updates:1;
  Sinks.stage s ~txn:7 Flight.Batched;
  Sinks.stage s ~txn:7 (Flight.Shipped { updates = 2 });
  Sinks.stage s ~site:"sec-0" ~txn:7 Flight.Enqueued;
  Sinks.stage s ~site:"sec-0" ~txn:7 Flight.Refresh_started;
  Sinks.stage s ~site:"sec-0" ~txn:7
    (Flight.Refresh_committed { commit_ts = 3 });
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
    let s = sinks f in
    Flight.note_commit f ~txn:1 ~hid:(-1) ~commit_ts:2 ~updates:1;
    Sinks.stage s ~site:"b" ~txn:1 Flight.Enqueued;
    Sinks.stage s ~site:"a" ~txn:1 Flight.Enqueued;
    Sinks.stage s ~site:"b" ~txn:1 (Flight.Refresh_committed { commit_ts = 2 });
    Sinks.stage s ~site:"a" ~txn:1 (Flight.Refresh_committed { commit_ts = 2 });
    Json.to_string (Flight.bundle_json f ~config:(Json.Obj []) ())
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

(* An export into a directory that does not exist yet must create it, not
   fail after the run: both file writers create missing parents. *)
let test_write_creates_parents () =
  let base = Filename.temp_file "lsr_obs_deep" "" in
  Sys.remove base;
  let jf = List.fold_left Filename.concat base [ "a"; "b"; "r.json" ] in
  let f = Flight.create () in
  Flight.note_commit f ~txn:1 ~hid:(-1) ~commit_ts:1 ~updates:1;
  let doc = Flight.bundle_json f ~config:(Json.Obj []) () in
  Json.write_file ~file:jf doc;
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  let text = slurp jf in
  check_string "canonical text plus newline" (Json.to_string doc ^ "\n") text;
  check_bool "file re-parses to the written document" true
    (Result.map Json.to_string (Json.parse text) = Ok (Json.to_string doc));
  let tf = List.fold_left Filename.concat base [ "x"; "t.json" ] in
  Obs.write_trace (Obs.create ()) ~file:tf;
  check_bool "trace parents created" true (Sys.file_exists tf);
  Sys.remove jf;
  Sys.remove tf;
  Sys.rmdir (Filename.dirname jf);
  Sys.rmdir (Filename.concat base "a");
  Sys.rmdir (Filename.dirname tf);
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
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics shape" `Quick test_metrics_json_shape;
          Alcotest.test_case "metrics deterministic" `Quick
            test_metrics_json_deterministic;
          Alcotest.test_case "trace shape" `Quick test_trace_json_shape;
          Alcotest.test_case "unclosed span dropped" `Quick
            test_unclosed_span_dropped;
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
