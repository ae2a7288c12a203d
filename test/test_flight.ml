(* The flight recorder (PR 10): ring semantics and first-trigger-wins at the
   unit level, then the simulator-level contracts — attaching the recorder
   never perturbs an outcome, its footprint is bounded regardless of run
   length, a run that keeps its guarantee captures nothing, and bundles are
   byte-deterministic per seed (replay --diff finds no divergence) — and
   the end-to-end postmortem path in the embedded system: a real violation
   trips the watchdog, and the bundle implicates the post-hoc checker's
   witness of it. *)

open Lsr_core
open Lsr_experiments
module Params = Lsr_workload.Params
module Json = Lsr_obs.Json
module Flight = Lsr_obs.Flight

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- unit: ring, triggers, bundles ------------------------------------------- *)

let test_null_inert () =
  let f = Flight.null in
  check_bool "not enabled" false (Flight.enabled f);
  Flight.note_commit f ~txn:1 ~hid:1 ~commit_ts:1 ~updates:1;
  Flight.note_read f ~site:(Flight.intern f "s") ~hid:2 ~session:"c"
    ~snapshot:1 ~fence:(-1);
  Flight.trigger f ~reason:"x" ();
  check_int "no events" 0 (Flight.events_noted f);
  check_int "no bytes" 0 (Flight.approx_bytes f);
  check_bool "never triggered" false (Flight.triggered f)

(* The ring's hot path: with a clock that returns an already boxed float,
   10k stage notes and 10k read notes on a live recorder allocate nothing. *)
let test_notes_allocate_nothing () =
  let f = Flight.create ~capacity:64 () in
  let now = 1.5 in
  Flight.set_clock f (fun () -> now);
  let site = Flight.intern f "secondary-0" in
  let words = Gc.minor_words () in
  for i = 1 to 10_000 do
    Flight.note_stage f ~site ~txn:i Flight.Refresh_committed ~record:(-1) i;
    Flight.note_read f ~site ~hid:i ~session:"c0" ~snapshot:i ~fence:(-1)
  done;
  Alcotest.(check (float 0.)) "noting allocates nothing" 0.
    (Gc.minor_words () -. words);
  check_int "every note counted" 20_000 (Flight.events_noted f)

let parse_ok j =
  match Flight.parse_bundle j with
  | Ok b -> b
  | Error e -> Alcotest.failf "bundle does not parse: %s" e

let test_ring_overwrites_and_first_trigger_wins () =
  let f = Flight.create ~capacity:1 () in
  check_int "capacity clamped up" 16 (Flight.capacity f);
  let clock = ref 0. in
  Flight.set_clock f (fun () -> !clock);
  for i = 1 to 40 do
    clock := float_of_int i;
    Flight.note_commit f ~txn:i ~hid:i ~commit_ts:i ~updates:1
  done;
  check_int "all events counted" 40 (Flight.events_noted f);
  Flight.trigger f ~reason:"first" ~detail:"d1" ~txns:[ 39; 40 ] ();
  Flight.trigger f ~reason:"second" ~detail:"d2" ~txns:[ 1 ] ();
  check_bool "triggered" true (Flight.triggered f);
  check_bool "first trigger wins" true
    (Flight.trigger_reason f = Some "first");
  let b = parse_ok (Flight.bundle_json f ~config:(Json.Obj [])) in
  check_string "reason" "first" b.Flight.reason;
  check_string "detail" "d1" b.Flight.detail;
  check_bool "implicated" true (b.Flight.implicated = [ 39; 40 ]);
  check_int "window bounded by capacity" 16 (Array.length b.Flight.window);
  check_int "evictions reported" 24 b.Flight.dropped;
  check_int "commits counted over the whole run" 40 b.Flight.commits;
  (* The retained window is the most recent suffix, oldest first. *)
  check_bool "window is the tail of the stream" true
    (match (b.Flight.window.(0).Flight.ev, b.Flight.window.(15).Flight.ev) with
    | Flight.Commit { txn = 25; _ }, Flight.Commit { txn = 40; _ } -> true
    | _ -> false);
  (* Replay accessors on the same bundle. *)
  check_int "events_until cuts at vt" 6
    (List.length (Flight.events_until b ~vt:30.));
  check_int "txn_events finds the witness" 1
    (List.length (Flight.txn_events b ~id:40));
  check_bool "witness interleaving covers the implicated txns" true
    (List.length (Flight.witness_events b) = 2);
  check_bool "horizons reconstruct at vt" true
    (Flight.horizons_at b ~vt:30. = [ ("primary", 30) ])

let test_bundle_json_roundtrip () =
  let f = Flight.create ~capacity:32 () in
  let clock = ref 0. in
  Flight.set_clock f (fun () -> !clock);
  clock := 1.;
  let sec0 = Flight.intern f "sec-0" in
  Flight.note_commit f ~txn:1 ~hid:10 ~commit_ts:1 ~updates:2;
  Flight.note_stage f ~site:(-1) ~txn:1 Flight.Batched ~record:(-1) (-1);
  Flight.note_stage f ~site:(-1) ~txn:1 Flight.Shipped ~record:(-1) 2;
  clock := 2.;
  Flight.note_stage f ~site:sec0 ~txn:1 Flight.Channel_delayed
    ~record:(Flight.intern f "commit") 3;
  Flight.note_stage f ~site:sec0 ~txn:1 Flight.Enqueued ~record:(-1) (-1);
  Flight.note_stage f ~site:sec0 ~txn:1 Flight.Refresh_started ~record:(-1)
    (-1);
  Flight.note_stage f ~site:sec0 ~txn:1 Flight.Refresh_committed ~record:(-1)
    1;
  clock := 3.;
  Flight.note_read f ~site:sec0 ~hid:11 ~session:"c0" ~snapshot:1 ~fence:1;
  Flight.note_crash f ~site:sec0;
  Flight.note_recovery f ~site:sec0 ~seq:1;
  let j = Flight.bundle_json f ~config:(Json.Obj [ ("seed", Json.Num 5.) ]) in
  (* The canonical text re-parses to the identical bundle. *)
  let text = Json.to_string j in
  let reparsed =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "bundle text does not re-parse: %s" e
  in
  let a = parse_ok j and b = parse_ok reparsed in
  check_bool "roundtrip is exact" true (a = b);
  check_string "untriggered bundle is the end-of-run window" "end-of-run"
    a.Flight.reason;
  check_int "every event kind survived the ring encoding" 10
    (Array.length a.Flight.window);
  check_bool "no divergence against itself" true (Flight.diff a b = None)

(* Reports written while a bundle still embedded the registry's metrics
   replay as before: the parser ignores that key. *)
let test_bundle_legacy_metrics () =
  let f = Flight.create ~capacity:8 () in
  Flight.note_commit f ~txn:1 ~hid:1 ~commit_ts:1 ~updates:1;
  let j = Flight.bundle_json f ~config:(Json.Obj []) in
  let legacy =
    match j with
    | Json.Obj kv ->
      Json.sort_keys
        (Json.Obj
           (("metrics", Json.Obj [ ("counters", Json.Obj []) ]) :: kv))
    | _ -> Alcotest.fail "bundle is not an object"
  in
  check_bool "legacy bundle parses to the same bundle" true
    (parse_ok legacy = parse_ok j)

let test_journey_evicted_vs_unknown () =
  (* Ten updates of three events each through a 16-slot ring: the oldest
     journeys leave it. A journey query tells those apart from ids that
     were never recorded, and returns retained journeys whole. *)
  let f = Flight.create ~capacity:16 () in
  let unknown txn = Flight.journey f ~txn = Error Flight.Unknown in
  check_bool "nothing recorded yet" true (unknown 0);
  let sec0 = Flight.intern f "sec-0" in
  for txn = 0 to 9 do
    Flight.note_commit f ~txn ~hid:(-1) ~commit_ts:(2 * txn) ~updates:1;
    Flight.note_stage f ~site:(-1) ~txn Flight.Batched ~record:(-1) (-1);
    Flight.note_stage f ~site:sec0 ~txn Flight.Refresh_committed ~record:(-1)
      (2 * txn)
  done;
  check_bool "the oldest journey was evicted" true
    (Flight.journey f ~txn:0 = Error (Flight.Evicted { dropped = 14 }));
  check_bool "an id never recorded is unknown" true (unknown 999);
  check_bool "a negative id is unknown" true (unknown (-1));
  (match Flight.journey f ~txn:9 with
  | Ok [ c; b; r ] ->
    check_bool "retained journey in causal order" true
      (match (c.Flight.ev, b.Flight.ev, r.Flight.ev) with
      | Flight.Commit _, Flight.Batched _, Flight.Refresh_commit _ -> true
      | _ -> false)
  | Ok j -> Alcotest.failf "journey of txn 9 has %d events" (List.length j)
  | Error _ -> Alcotest.fail "txn 9 is still in the ring");
  (match Flight.journey f ~txn:4 with
  | Ok j -> check_int "a half-evicted journey is its retained suffix" 1
              (List.length j)
  | Error _ -> Alcotest.fail "txn 4's refresh commit is still in the ring");
  check_bool "txns lists the retained ids" true
    (Flight.txns f = [ 4; 5; 6; 7; 8; 9 ]);
  Flight.new_epoch f;
  check_bool "a new epoch forgets the old ids" true (unknown 0);
  check_bool "the null recorder knows nothing" true
    (Flight.journey Flight.null ~txn:0 = Error Flight.Unknown)

(* --- simulator-level contracts ----------------------------------------------- *)

let base_params =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = 5;
    warmup = 10.;
    duration = 120.;
  }

let cfg ?(params = base_params) ?(watchdog = false) ?(flight = false) guarantee
    ~seed =
  {
    (Sim_system.config params guarantee ~seed) with
    Sim_system.record_history = true;
    watchdog;
    flight = (if flight then Flight.create () else Flight.null);
  }

let scrub (o : Sim_system.outcome) =
  {
    o with
    Sim_system.checker_cpu_s = 0.;
    check_report = None;
    flight_report = None;
    flight_trigger = None;
    flight_events = 0;
    flight_bytes = 0;
  }

let test_never_perturbs () =
  (* The recorder only observes: every simulation outcome field must be
     identical with and without it, for a quiet run and for an anomalous
     one (watchdog on, alerts firing, the trigger path exercised). *)
  let pairs =
    [
      ( "quiet",
        cfg Session.Strong_session ~seed:5,
        cfg Session.Strong_session ~seed:5 ~flight:true );
      ( "watchdog on",
        {
          (cfg Session.Weak ~seed:7 ~watchdog:true) with
          Sim_system.migrate_prob = 0.4;
        },
        {
          (cfg Session.Weak ~seed:7 ~watchdog:true ~flight:true) with
          Sim_system.migrate_prob = 0.4;
        } );
    ]
  in
  List.iter
    (fun (tag, off, on_) ->
      let off = Sim_system.run off and on_ = Sim_system.run on_ in
      check_bool (tag ^ ": identical scrubbed outcomes") true
        (scrub off = scrub on_);
      Alcotest.(check (list string))
        (tag ^ ": identical check errors")
        off.Sim_system.check_errors on_.Sim_system.check_errors)
    pairs

let test_bounded_footprint () =
  (* Quadrupling the run multiplies the events seen but not the resident
     bytes: the ring is fixed at creation. *)
  let run duration =
    Sim_system.run
      (cfg ~params:{ base_params with Params.duration } Session.Strong_session
         ~seed:11 ~flight:true)
  in
  let short = run 120. and long = run 480. in
  check_bool "events grow with the run" true
    (long.Sim_system.flight_events > 3 * short.Sim_system.flight_events);
  check_bool "short run saw plenty of events" true
    (short.Sim_system.flight_events > 300);
  (* The ring dominates the footprint; only live session-label bookkeeping
     moves, and by well under a percent. *)
  let sb = short.Sim_system.flight_bytes
  and lb = long.Sim_system.flight_bytes in
  check_bool
    (Printf.sprintf "resident bytes stay flat (%d vs %d)" sb lb)
    true
    (abs (lb - sb) * 100 < sb)

let migrating_cfg ~flight =
  {
    (cfg Session.Weak ~seed:7 ~watchdog:true ~flight) with
    Sim_system.migrate_prob = 0.4;
  }

let bundle_of (o : Sim_system.outcome) =
  match o.Sim_system.flight_report with
  | Some j -> parse_ok j
  | None -> Alcotest.fail "no flight report"

let test_clean_runs_capture_nothing () =
  (* Runs that keep their guarantee raise no alert, so nothing triggers the
     recorder — even a weak run whose cross-site load balancing inverts
     transactions in session, which weak SI does not forbid. The watchdog
     still counts every inversion, level by level, as the checker finds
     them. *)
  let clean tag cfg =
    let o = Sim_system.run cfg in
    let v = Option.get o.Sim_system.watchdog_verdict in
    let report = Option.get o.Sim_system.check_report in
    Alcotest.(check (list string)) (tag ^ ": clean run") [] o.Sim_system.check_errors;
    check_int (tag ^ ": no alert") 0 v.Watchdog.alerts_total;
    check_bool (tag ^ ": no capture") true (o.Sim_system.flight_trigger = None);
    List.iter
      (fun (level, count, invs) ->
        check_int
          (Printf.sprintf "%s: %s inversions counted" tag level)
          (List.length invs) count)
      [
        ("all-sessions", v.Watchdog.v_inversions_all, report.Checker.inversions_all);
        ( "in-session",
          v.Watchdog.v_inversions_in_session,
          report.Checker.inversions_in_session );
        ( "after-update",
          v.Watchdog.v_inversions_after_update,
          report.Checker.inversions_after_update );
      ];
    v
  in
  let weak = clean "weak" (migrating_cfg ~flight:true) in
  check_bool "the weak run inverted in session" true
    (weak.Watchdog.v_inversions_in_session > 0);
  ignore
    (clean "strong session"
       (cfg Session.Strong_session ~seed:5 ~watchdog:true ~flight:true))

let test_end_of_run_fallback () =
  (* A clean run never triggers; the bundle still exists (reason
     "end-of-run") so every recorded run is inspectable. *)
  let o = Sim_system.run (cfg Session.Strong_session ~seed:5 ~flight:true) in
  check_bool "no trigger on a clean run" true
    (o.Sim_system.flight_trigger = None);
  let b = bundle_of o in
  check_string "fallback reason" "end-of-run" b.Flight.reason;
  check_bool "nothing implicated" true (b.Flight.implicated = []);
  check_bool "window retained anyway" true (Array.length b.Flight.window > 0);
  check_bool "bundle embeds the seed" true
    (Json.member "seed" b.Flight.config = Some (Json.Num 5.))

let test_deterministic_bundles_and_diff () =
  (* Same seed, two fresh recorders: byte-identical bundles, and the replay
     diff engine agrees there is no divergence. *)
  let run () = Sim_system.run (migrating_cfg ~flight:true) in
  let a = run () and b = run () in
  let ja = Option.get a.Sim_system.flight_report
  and jb = Option.get b.Sim_system.flight_report in
  check_string "byte-identical bundles" (Json.to_string ja) (Json.to_string jb);
  check_bool "diff finds no divergence" true
    (Flight.diff (parse_ok ja) (parse_ok jb) = None);
  (* A genuinely different window (different seed) must diverge. *)
  let c =
    Sim_system.run
      {
        (migrating_cfg ~flight:true) with
        Sim_system.seed = 8;
      }
  in
  match c.Sim_system.flight_report with
  | None -> Alcotest.fail "no flight report on the control run"
  | Some jc ->
    check_bool "different seeds diverge" true
      (Flight.diff (parse_ok ja) (parse_ok jc) <> None)

(* --- embedded system ------------------------------------------------------------ *)

let test_postmortem_end_to_end () =
  (* A write made at a secondary behind the protocol's back makes the next
     read there disagree with the primary's state at its snapshot: a weak-SI
     violation, which breaks every guarantee. The watchdog's first alert
     must trip the recorder, and the bundle must implicate exactly the read
     the post-hoc checker independently blames. *)
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:1 ~flight ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "c" in
  for i = 1 to 3 do
    match System.update sys c (fun h -> Handle.put h "k" (string_of_int i)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  done;
  System.pump sys;
  let db = System.secondary_db sys 0 in
  let txn = Lsr_storage.Mvcc.begin_txn db in
  Lsr_storage.Mvcc.write db txn "k" (Some "diverged");
  (match Lsr_storage.Mvcc.commit db txn with
  | Lsr_storage.Mvcc.Committed _ -> ()
  | Lsr_storage.Mvcc.Aborted _ -> Alcotest.fail "diverging write aborted");
  ignore (System.read sys c (fun h -> Handle.get h "k"));
  let b = parse_ok (Flight.bundle_json flight ~config:(Json.Obj [])) in
  check_string "trigger reason" "watchdog" b.Flight.reason;
  check_bool "trigger detail names the alert" true
    (String.length b.Flight.detail > 0);
  (* The checker's one weak-SI violation names its reader first. *)
  let report =
    Checker.analyze ~clock:(System.commit_clock sys) (System.history sys)
  in
  (match (b.Flight.implicated, report.Checker.weak_si_violations) with
  | [ id ], [ violation ] ->
    check_bool
      (Printf.sprintf "implicated txn %d is the checker's witness: %s" id
         violation)
      true
      (String.starts_with ~prefix:(Printf.sprintf "T%d[" id) violation)
  | ids, vs ->
    Alcotest.failf "expected one implicated id and one violation, got %d and %d"
      (List.length ids) (List.length vs));
  check_bool "window captured" true (Array.length b.Flight.window > 0);
  check_bool "primary horizon captured" true
    (List.mem_assoc "primary" b.Flight.horizons);
  check_bool "window events precede the trigger instant" true
    (Array.for_all (fun (e : Flight.event) -> e.Flight.time <= b.Flight.at)
       b.Flight.window);
  check_bool "the witness events are in the window" true
    (Flight.witness_events b <> [])

let test_embedded_channel_faults () =
  (* The embedded system hands its sinks to its fault channels, so injected
     channel faults land in its flight recorder. *)
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:2 ~faults:(Channel.chaos, 2024) ~flight
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "c0" in
  for i = 1 to 20 do
    match
      System.update sys c (fun h -> Handle.put h (Printf.sprintf "k%d" i) "v")
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  done;
  System.pump sys;
  let b = parse_ok (Flight.bundle_json flight ~config:(Json.Obj [])) in
  check_bool "a channel fault is in the window" true
    (Array.exists
       (fun e ->
         match e.Flight.ev with Flight.Chan_fault _ -> true | _ -> false)
       b.Flight.window)

let test_embedded_read_floor () =
  (* A read's flight event records the seq floor it was held to: a
     strong-session read carrying the weaker fence [Exact 1] is held to its
     session's own seq(c), which is what the bundle must show. *)
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:1 ~flight ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "c0" in
  for i = 1 to 6 do
    match
      System.update sys c (fun h -> Handle.put h (Printf.sprintf "k%d" i) "v")
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  done;
  let floor = Session.seq (System.sessions sys) "c0" in
  check_bool "the session floor is above the fence" true (floor > 1);
  ignore (System.read ~fence:(Session.Exact 1) sys c (fun h -> Handle.get h "k1"));
  let b = parse_ok (Flight.bundle_json flight ~config:(Json.Obj [])) in
  let fences =
    Array.to_list b.Flight.window
    |> List.filter_map (fun e ->
           match e.Flight.ev with
           | Flight.Read { fence; _ } -> Some fence
           | _ -> None)
  in
  Alcotest.(check (list int)) "read event carries the session floor" [ floor ]
    fences

let test_pooled_read_claims_its_snapshot () =
  (* A simulated read records the seq floor it was held to together with
     its snapshot, before its first operation, where the fence audit holds
     it. Under a pooled open-loop session, reads and updates of the same
     session run while its operations do, so a floor taken at the end could
     claim more than the snapshot the read saw. *)
  let params =
    {
      base_params with
      Params.op_service_time = 0.002;
      warmup = 0.;
      duration = 200.;
    }
  in
  let o =
    Sim_system.run
      {
        (Sim_system.config params Session.Weak ~seed:20060912) with
        Sim_system.client_mode =
          Sim_system.Open_loop
            { clients = 1000; arrival = Sim_system.Poisson; session_pool = 64 };
        fence = Sim_system.All_reads Session.Session_seq;
        flight = Flight.create ();
      }
  in
  let claims =
    Array.to_list (bundle_of o).Flight.window
    |> List.filter_map (fun e ->
           match e.Flight.ev with
           | Flight.Read { snapshot; fence; _ } -> Some (snapshot, fence)
           | _ -> None)
  in
  check_bool "the window holds fenced reads" true
    (List.exists (fun (_, fence) -> fence > 0) claims);
  check_int "reads claiming a floor above their snapshot" 0
    (List.length (List.filter (fun (snapshot, fence) -> fence > snapshot) claims))

let () =
  Alcotest.run "lsr_flight"
    [
      ( "ring",
        [
          Alcotest.test_case "null is inert" `Quick test_null_inert;
          Alcotest.test_case "noting allocates nothing" `Quick
            test_notes_allocate_nothing;
          Alcotest.test_case "overwrite + first trigger wins" `Quick
            test_ring_overwrites_and_first_trigger_wins;
          Alcotest.test_case "journey evicted vs unknown" `Quick
            test_journey_evicted_vs_unknown;
          Alcotest.test_case "bundle json roundtrip" `Quick
            test_bundle_json_roundtrip;
          Alcotest.test_case "bundle with legacy metrics" `Quick
            test_bundle_legacy_metrics;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "never perturbs" `Slow test_never_perturbs;
          Alcotest.test_case "bounded footprint" `Slow test_bounded_footprint;
          Alcotest.test_case "clean runs capture nothing" `Quick
            test_clean_runs_capture_nothing;
          Alcotest.test_case "end-of-run fallback" `Quick
            test_end_of_run_fallback;
          Alcotest.test_case "deterministic bundles + diff" `Quick
            test_deterministic_bundles_and_diff;
          Alcotest.test_case "pooled read claims its snapshot" `Quick
            test_pooled_read_claims_its_snapshot;
        ] );
      ( "embedded",
        [
          Alcotest.test_case "channel faults recorded" `Quick
            test_embedded_channel_faults;
          Alcotest.test_case "read records its seq floor" `Quick
            test_embedded_read_floor;
          Alcotest.test_case "postmortem end to end" `Quick
            test_postmortem_end_to_end;
        ] );
    ]
