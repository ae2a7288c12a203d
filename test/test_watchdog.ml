(* The watchdog's differential suite: on every fuzzed run the online
   verdict must equal the independent references' — the quadratic
   Legacy_checker's weak-SI read mismatches and inversions at all three
   strictness levels, witness pair for witness pair, and its separate fence
   sweep's failures — and [Watchdog.replay] of the run's history must give
   the online verdict and alerts, and, promising each level, blame the same
   inversion witnesses as the reference. Plus the watchdog's own contracts:
   deterministic alert ordering, zero effect on simulation outcomes, and
   bounded state through continuous retirement (embedded system and
   simulator). *)

open Lsr_core
open Lsr_experiments
module Params = Lsr_workload.Params
module Json = Lsr_obs.Json
module Flight = Lsr_obs.Flight

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the references ---------------------------------------------------------- *)

(* The reference's inversions at the level [guarantee] forbids, as sorted
   (earlier id, later id) pairs. *)
let forbidden_pairs guarantee (r : Legacy_checker.report) =
  (match guarantee with
  | Session.Weak -> []
  | Session.Prefix_consistent -> r.inversions_after_update
  | Session.Strong_session -> r.inversions_in_session
  | Session.Strong -> r.inversions_all)
  |> List.map (fun { Legacy_checker.earlier; later } ->
         (earlier.History.id, later.History.id))
  |> List.sort compare

(* Replays [history] into watchdogs promising each of the three levels:
   each raises one alert per inversion the reference finds at that level
   (plus its read mismatches and fence failures), and, whenever its bounded
   log kept everything, blames the same (earlier, later) pairs, not merely
   as many. *)
let assert_witnesses ~tag ?clock ~fences history (legacy : Legacy_checker.report) =
  List.iter
    (fun g ->
      let tag = Printf.sprintf "%s, replayed as %s" tag (Session.guarantee_name g) in
      let expected = forbidden_pairs g legacy in
      let w = Watchdog.replay ?clock ~guarantee:g history in
      let v = Watchdog.verdict w in
      check_int (tag ^ ": one alert per violation")
        (List.length legacy.weak_si_violations + fences + List.length expected)
        v.Watchdog.alerts_total;
      if v.Watchdog.alerts_dropped = 0 then
        Alcotest.(check (list (pair int int)))
          (tag ^ ": witness pairs") expected
          (Fixtures.alert_pairs (Watchdog.alerts w)))
    [ Session.Strong; Session.Strong_session; Session.Prefix_consistent ]

(* The run's commit clock, rebuilt from a flight recorder that kept every
   event: each primary commit's timestamp at its virtual time. *)
let commit_clock flight =
  check_bool "the recorder kept every event" true
    (Flight.events_noted flight <= Flight.capacity flight);
  let clock = Session.clock_create () in
  List.concat_map
    (fun txn ->
      match Flight.journey flight ~txn with
      | Ok events ->
        List.filter_map
          (fun (e : Flight.event) ->
            match e.ev with
            | Flight.Commit { commit_ts; _ } -> Some (commit_ts, e.time)
            | _ -> None)
          events
      | Error _ -> [])
    (Flight.txns flight)
  |> List.sort compare
  |> List.iter (fun (commit_ts, at) -> Session.clock_note clock ~commit_ts ~at);
  clock

(* --- differential: online watchdog == references == replay -------------------- *)

let base_params =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = 5;
    warmup = 10.;
    duration = 120.;
  }

let both_cfg ?(params = base_params) guarantee ~seed =
  {
    (Sim_system.config params guarantee ~seed) with
    Sim_system.record_history = true;
    watchdog = true;
  }

let assert_equivalent ~tag (cfg : Sim_system.config) =
  let history = History.create () in
  let flight = Flight.create ~capacity:(1 lsl 16) () in
  let o = Sim_system.run ~history { cfg with Sim_system.flight } in
  let clock = commit_clock flight in
  let v =
    match o.Sim_system.watchdog_verdict with
    | Some v -> v
    | None -> Alcotest.failf "%s: no watchdog verdict" tag
  in
  let legacy = Legacy_checker.analyze history in
  let fences = Legacy_checker.fences ~clock history in
  Alcotest.(check (list string))
    (tag ^ ": the run kept its guarantee") [] o.Sim_system.check_errors;
  check_int
    (tag ^ ": weak-SI read mismatches")
    (List.length legacy.weak_si_violations)
    v.Watchdog.read_mismatches;
  check_int
    (tag ^ ": inversions (all)")
    (List.length legacy.inversions_all)
    v.Watchdog.v_inversions_all;
  check_int
    (tag ^ ": inversions (in session)")
    (List.length legacy.inversions_in_session)
    v.Watchdog.v_inversions_in_session;
  check_int
    (tag ^ ": inversions (after update)")
    (List.length legacy.inversions_after_update)
    v.Watchdog.v_inversions_after_update;
  check_int (tag ^ ": fence failures") (List.length fences) v.Watchdog.fence_failures;
  (* The live watchdog raises alerts exactly when the run broke the
     guarantee it promised, and blames what the references blame. *)
  let guarantee = cfg.Sim_system.guarantee in
  check_bool
    (tag ^ ": no alert iff the references find the guarantee kept")
    (Legacy_checker.satisfies guarantee legacy && fences = [])
    (v.Watchdog.alerts_total = 0);
  if v.Watchdog.alerts_dropped = 0 then begin
    Alcotest.(check (list (pair int int)))
      (tag ^ ": online witness pairs") (forbidden_pairs guarantee legacy)
      (Fixtures.alert_pairs o.Sim_system.watchdog_alerts);
    Alcotest.(check (list (pair int string)))
      (tag ^ ": online fence failures") (List.sort compare fences)
      (Fixtures.fence_alerts o.Sim_system.watchdog_alerts)
  end;
  (* The replay of the recorded run agrees with the online watchdog: the
     end-of-run verdict and a replay with the rebuilt clock alike. *)
  let replay = Watchdog.replay ~clock ~guarantee history in
  check_bool (tag ^ ": end-of-run replay verdict = online verdict") true
    (o.Sim_system.check_report = Some v);
  check_bool (tag ^ ": replay verdict = online verdict") true
    (Watchdog.verdict replay = v);
  let kinds alerts =
    List.map (fun (a : Watchdog.alert) -> (a.txn, a.kind)) alerts
    |> List.sort compare
  in
  check_bool (tag ^ ": replay alerts = online alerts") true
    (kinds (Watchdog.alerts replay) = kinds o.Sim_system.watchdog_alerts);
  assert_witnesses ~tag ~clock ~fences:(List.length fences) history legacy

let guarantees =
  [
    ("weak", Session.Weak);
    ("pcsi", Session.Prefix_consistent);
    ("strong-session", Session.Strong_session);
    ("strong", Session.Strong);
  ]

let test_differential_guarantees () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun seed ->
          let tag = Printf.sprintf "%s seed=%d" gname seed in
          assert_equivalent ~tag (both_cfg g ~seed))
        [ 11; 12; 13 ])
    guarantees

let test_differential_migration () =
  (* Cross-site load balancing provokes real in-session inversions under
     weak SI — the interesting case for the per-session floors. *)
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun seed ->
          let cfg =
            { (both_cfg g ~seed) with Sim_system.migrate_prob = 0.4 }
          in
          let tag = Printf.sprintf "migrate %s seed=%d" gname seed in
          assert_equivalent ~tag cfg)
        [ 21; 22 ])
    guarantees

let test_differential_fences () =
  (* Fence mixes exercise the wall-order fence floor and the Max_age
     horizon audit in both checkers. *)
  let mixes =
    [
      ("session", Sim_system.All_reads Session.Session_seq);
      ("age", Sim_system.All_reads (Session.Max_age 2.0));
      ( "mix",
        Sim_system.Fence_mix
          [
            (0.3, Some Session.Session_seq);
            (0.2, Some (Session.Max_age 1.0));
            (0.5, None);
          ] );
    ]
  in
  List.iter
    (fun (mname, fence) ->
      List.iter
        (fun seed ->
          let cfg =
            { (both_cfg Session.Weak ~seed) with Sim_system.fence }
          in
          let tag = Printf.sprintf "fence %s seed=%d" mname seed in
          assert_equivalent ~tag cfg)
        [ 31; 32 ])
    mixes

let test_differential_faults () =
  (* Chaos networking delays refresh arbitrarily: snapshots get very stale,
     the retirement horizon crawls, and both checkers must still agree. *)
  List.iter
    (fun seed ->
      let cfg =
        {
          (both_cfg Session.Strong_session ~seed) with
          Sim_system.faults = Some Channel.chaos;
          migrate_prob = 0.2;
        }
      in
      let tag = Printf.sprintf "chaos seed=%d" seed in
      assert_equivalent ~tag cfg)
    [ 41; 42 ]

let test_differential_contended () =
  (* Fifty keys make reads meet versions written during the run, so the
     weak-SI read validation has values to judge; jittered propagation
     makes migrating sessions meet sites at different seq(DBsec). *)
  let params =
    {
      base_params with
      Params.clients_per_secondary = 8;
      key_space = 50;
      propagation_jitter = 20.;
      warmup = 20.;
      duration = 170.;
    }
  in
  List.iter
    (fun (gname, g) ->
      let cfg = { (both_cfg ~params g ~seed:42) with Sim_system.migrate_prob = 0.3 } in
      assert_equivalent ~tag:(Printf.sprintf "contended %s" gname) cfg)
    guarantees

let test_differential_abortive () =
  (* A high abort rate exercises the aborted-update path: aborted attempts
     pin nothing, validate nothing, and must not shift any floor. *)
  let params = { base_params with Params.abort_prob = 0.3 } in
  List.iter
    (fun (gname, g) ->
      let tag = Printf.sprintf "aborts %s" gname in
      assert_equivalent ~tag (both_cfg ~params g ~seed:51))
    guarantees

(* --- watchdog contracts ------------------------------------------------------ *)

let scrub (o : Sim_system.outcome) =
  {
    o with
    Sim_system.checker_cpu_s = 0.;
    check_report = None;
    watchdog_verdict = None;
    watchdog_alerts = [];
    watchdog_peak_state = 0;
    watchdog_report = None;
  }

let test_watchdog_never_perturbs () =
  (* Attaching the watchdog must not change a single simulation outcome
     field: it only observes, and virtual time never advances in its
     hooks. *)
  let run watchdog =
    Sim_system.run
      {
        (Sim_system.config base_params Session.Strong_session ~seed:5) with
        Sim_system.record_history = true;
        watchdog;
      }
  in
  let off = run false and on_ = run true in
  check_bool "identical scrubbed outcomes" true (scrub off = scrub on_);
  Alcotest.(check (list string))
    "identical check errors" off.Sim_system.check_errors
    on_.Sim_system.check_errors

let test_alerts_sorted_and_bounded () =
  (* A weak run with migration, judged as if it promised strong SI: each of
     its all-sessions inversions is a violation. *)
  let history = History.create () in
  ignore
    (Sim_system.run ~history
       { (both_cfg Session.Weak ~seed:7) with Sim_system.migrate_prob = 0.4 });
  let w = Watchdog.replay ~guarantee:Session.Strong history in
  let v = Watchdog.verdict w in
  let alerts = Watchdog.alerts w in
  check_bool "run produced alerts" true (v.Watchdog.alerts_total > 0);
  let rec sorted = function
    | (a : Watchdog.alert) :: (b : Watchdog.alert) :: rest ->
      (a.Watchdog.at < b.Watchdog.at
      || (a.Watchdog.at = b.Watchdog.at && a.Watchdog.txn <= b.Watchdog.txn))
      && sorted (b :: rest)
    | _ -> true
  in
  check_bool "alerts sorted by (time, txn)" true (sorted alerts);
  check_int "retained = total - dropped"
    (v.Watchdog.alerts_total - v.Watchdog.alerts_dropped)
    (List.length alerts);
  check_int "verdict totals the violations by kind" v.Watchdog.alerts_total
    (v.Watchdog.read_mismatches + v.Watchdog.v_inversions_all
   + v.Watchdog.fence_failures);
  check_bool "weaker-level inversions are counted, not alerted" true
    (v.Watchdog.v_inversions_in_session > 0
    && List.for_all
         (fun (a : Watchdog.alert) ->
           match a.Watchdog.kind with
           | Watchdog.Inversion { level; _ } -> level = Watchdog.All_sessions
           | _ -> true)
         alerts);
  (* The JSON report is deterministic and sorted. *)
  let text = Json.to_string (Watchdog.report_json w) in
  match Json.parse text with
  | Error e -> Alcotest.failf "watchdog report does not re-parse: %s" e
  | Ok reparsed ->
    check_bool "report keys already sorted" true
      (Json.to_string (Json.sort_keys reparsed) = text)

let test_bounded_memory () =
  (* Same trajectory, growing run length: the recorded history grows
     linearly while the watchdog's peak state stays within the (fixed)
     active visibility window — the long run's peak must stay far below its
     own transaction count and close to the short run's peak. *)
  let run duration =
    let params = { base_params with Params.duration } in
    Sim_system.run (both_cfg ~params Session.Strong_session ~seed:9)
  in
  let short = run 100. and long = run 800. in
  let txns (o : Sim_system.outcome) =
    o.Sim_system.reads_completed + o.Sim_system.updates_completed
  in
  check_bool "long run did ~8x the work" true (txns long > 5 * txns short);
  check_bool
    (Printf.sprintf "peak state flat across run lengths (%d vs %d)"
       short.Sim_system.watchdog_peak_state long.Sim_system.watchdog_peak_state)
    true
    (long.Sim_system.watchdog_peak_state
    < 2 * short.Sim_system.watchdog_peak_state);
  check_bool
    (Printf.sprintf "peak state %d well below %d txns"
       long.Sim_system.watchdog_peak_state (txns long))
    true
    (long.Sim_system.watchdog_peak_state * 4 < txns long)

(* --- embedded system --------------------------------------------------------- *)

let test_embedded_inversion_alert () =
  (* Provoke a textbook inversion in the embedded system: commit at the
     primary, read the not-yet-refreshed secondary. Under Weak that is
     legal, so the watchdog counts the strong-SI-level inversion without
     raising an alert; replayed as a strong-SI run, the same history alerts
     on it — and the reference checker agrees at every level. *)
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak ~watchdog:true () in
  let alice = System.connect sys "alice" in
  let bob = System.connect sys "bob" in
  (match System.update sys alice (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "seed update aborted");
  System.pump sys;
  (match System.update sys alice (fun h -> Handle.put h "x" "2") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "second update aborted");
  (* No pump: bob reads the stale secondary after alice's commit finished. *)
  check_bool "stale read observed the old value" true
    (System.read sys bob (fun h -> Handle.get h "x") = Some "1");
  System.pump sys;
  let w = Option.get (System.watchdog sys) in
  let v = Watchdog.verdict w in
  check_bool "watchdog counted the strong-SI inversion" true
    (v.Watchdog.v_inversions_all > 0);
  check_int "no weak-SI mismatch (the stale snapshot was consistent)" 0
    v.Watchdog.read_mismatches;
  check_int "no alert: weak SI forbids no inversion" 0 v.Watchdog.alerts_total;
  let clock = System.commit_clock sys and history = System.history sys in
  check_bool "as a strong-SI run it would alert" true
    ((Watchdog.verdict (Watchdog.replay ~clock ~guarantee:Session.Strong history))
       .Watchdog.alerts_total > 0);
  (* Agreement with the reference on the same run. *)
  let legacy = Legacy_checker.analyze history in
  check_int "the reference's count agrees"
    (List.length legacy.inversions_all)
    v.Watchdog.v_inversions_all;
  assert_witnesses ~tag:"embedded" ~clock ~fences:0 history legacy

let test_embedded_aborted_reads_not_judged () =
  (* The embedded system records an aborted update at snapshot zero. Its
     reads of keys that exist by then are not a weak-SI violation: only
     committed transactions are judged, online, replayed and by the
     reference alike. *)
  let sys =
    System.create ~secondaries:1 ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "k" "v0") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "preload aborted");
  System.pump sys;
  (match
     System.update sys c ~force_abort:true (fun h ->
         ignore (Handle.get h "k");
         Handle.put h "k" "v1")
   with
  | Error Lsr_storage.Mvcc.Forced -> ()
  | _ -> Alcotest.fail "forced abort did not abort");
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "post-hoc check failed: %s" (String.concat "; " es));
  let w = Option.get (System.watchdog sys) in
  check_int "watchdog and reference agree on read mismatches"
    (List.length (Legacy_checker.check_weak_si (System.history sys)))
    (Watchdog.verdict w).Watchdog.read_mismatches;
  check_int "no read mismatch" 0 (Watchdog.verdict w).Watchdog.read_mismatches

let test_embedded_retirement () =
  (* Refresh commits drive the horizon: once every secondary has applied a
     version and nothing pins it, it folds into the base map. *)
  let sys =
    System.create ~secondaries:2 ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "writer" in
  for i = 1 to 50 do
    (match
       System.update sys c (fun h -> Handle.put h "k" (string_of_int i))
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted");
    if i mod 5 = 0 then System.pump sys
  done;
  System.pump sys;
  let w = Option.get (System.watchdog sys) in
  check_bool "horizon advanced" true (Watchdog.horizon w > 0);
  check_bool "versions were retired" true (Watchdog.retired_versions w > 40);
  check_bool
    (Printf.sprintf "live state small (%d live, %d retired)"
       (Watchdog.live_versions w) (Watchdog.retired_versions w))
    true
    (Watchdog.live_versions w < 10);
  check_bool "state size bounded" true
    (Watchdog.state_size w < Watchdog.peak_state w + 1);
  check_int "clean verdict" 0 (Watchdog.verdict w).Watchdog.alerts_total

let test_embedded_recovery () =
  (* Crash/recover a secondary with the watchdog attached: recovery reseeds
     the site's visibility horizon and the verdict stays clean under the
     guarantee the system advertises. *)
  let sys =
    System.create ~secondaries:2 ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "writer" in
  let put v =
    match System.update sys c (fun h -> Handle.put h "k" v) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  in
  put "1";
  System.pump sys;
  System.crash_secondary sys 1;
  put "2";
  put "3";
  System.recover_secondary sys 1;
  put "4";
  System.pump sys;
  let reader = System.connect sys ~secondary:1 "reader" in
  check_bool "recovered site serves the latest value" true
    (System.read sys reader (fun h -> Handle.get h "k") = Some "4");
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "post-hoc check failed: %s" (String.concat "; " es));
  let w = Option.get (System.watchdog sys) in
  check_int "watchdog verdict clean across crash/recovery" 0
    (Watchdog.verdict w).Watchdog.alerts_total;
  check_bool "recovery advanced the horizon" true (Watchdog.horizon w > 0)

(* A system whose one read disagrees with the primary's state at its
   snapshot: a write made at the secondary behind the protocol's back. *)
let diverged_read ~watchdog =
  let sys =
    System.create ~secondaries:1 ~guarantee:Session.Strong_session ~watchdog ()
  in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "k" "v") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update aborted");
  System.pump sys;
  let db = System.secondary_db sys 0 in
  let txn = Lsr_storage.Mvcc.begin_txn db in
  Lsr_storage.Mvcc.write db txn "k" (Some "diverged");
  (match Lsr_storage.Mvcc.commit db txn with
  | Lsr_storage.Mvcc.Committed _ -> ()
  | Lsr_storage.Mvcc.Aborted _ -> Alcotest.fail "diverging write aborted");
  Alcotest.(check (option string))
    "the read sees the diverged copy" (Some "diverged")
    (System.read sys c (fun h -> Handle.get h "k"));
  sys

let test_embedded_check_reports_watchdog () =
  (* [System.check] carries the watchdog's verdict. *)
  let sys = diverged_read ~watchdog:true in
  let v = Watchdog.verdict (Option.get (System.watchdog sys)) in
  check_int "one read mismatch" 1 v.Watchdog.read_mismatches;
  match System.check sys with
  | Ok () -> Alcotest.fail "check passed a diverged secondary"
  | Error es ->
    Alcotest.(check bool)
      (Printf.sprintf "watchdog line in: %s" (String.concat "; " es))
      true
      (List.mem
         (Printf.sprintf "watchdog: guarantee %s violated (%d alerts)"
            (Session.guarantee_name Session.Strong_session)
            v.Watchdog.alerts_total)
         es);
    Alcotest.(check bool)
      (Printf.sprintf "the replay's line in: %s" (String.concat "; " es))
      true
      (List.exists
         (String.starts_with
            ~prefix:
              "audit: guarantee ALG-STRONG-SESSION-SI violated: 1 read \
               mismatches, 0 fence failures, 0 inversions; first ")
         es)

(* The replay stamps an alert with the history tick of the transaction's
   end, and the audit line prints it as a tick, not as virtual seconds. *)
let test_replayed_alert_prints_tick () =
  let sys = diverged_read ~watchdog:false in
  match System.check sys with
  | Ok () -> Alcotest.fail "check passed a diverged secondary"
  | Error es ->
    Alcotest.(check (list string))
      "the audit line"
      [ "audit: guarantee ALG-STRONG-SESSION-SI violated: 1 read mismatches, \
         0 fence failures, 0 inversions; first [tick 4] txn 2 (session c at \
         secondary-0, snapshot 2): read k = diverged but primary state has v" ]
      es

exception Body_failed

(* Every pin the core took is released: its horizon is the site's seq, and
   a compact keeps one version of the one key at every store. *)
let check_core_unpinned sys =
  check_int "the core's horizon is the site's seq"
    (Secondary.seq_dbsec (System.secondary sys 0))
    (Replica_set.horizon (System.replica_set sys));
  ignore (System.compact sys);
  List.iter
    (fun (name, db) ->
      check_int (name ^ " keeps one version") 1
        (Lsr_storage.Mvcc.version_count db))
    [ ("primary", System.primary_db sys); ("secondary", System.secondary_db sys 0) ]

let test_embedded_raising_body () =
  (* A read or update body that raises (as [Sql.run_script] does on a
     semantic error) must give its token back: a leaked pin holds the
     horizon where it was, and every later version stays unretired. The
     failed transaction is not recorded, and the update's abort reaches the
     primary log, so no start record is left open. *)
  let sys =
    System.create ~secondaries:1 ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "c" in
  let put i =
    match System.update sys c (fun h -> Handle.put h "k" (string_of_int i)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  in
  put 0;
  System.pump sys;
  Alcotest.check_raises "update body re-raised" Body_failed (fun () ->
      ignore
        (System.update sys c (fun h ->
             Handle.put h "k" "lost";
             raise Body_failed)));
  Alcotest.check_raises "read body re-raised" Body_failed (fun () ->
      ignore (System.read sys c (fun _ -> raise Body_failed)));
  check_int "nothing recorded for the failed bodies" 1
    (History.length (System.history sys));
  for i = 1 to 2_000 do
    put i;
    if i mod 10 = 0 then System.pump sys
  done;
  let w = Option.get (System.watchdog sys) in
  check_bool
    (Printf.sprintf "horizon advanced (%d)" (Watchdog.horizon w))
    true
    (Watchdog.horizon w > 4_000);
  check_bool
    (Printf.sprintf "state retired (%d)" (Watchdog.state_size w))
    true
    (Watchdog.state_size w < 10);
  Alcotest.(check (list int))
    "every start closed" []
    (Fixtures.open_starts (Lsr_storage.Mvcc.wal (System.primary_db sys)));
  check_core_unpinned sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (String.concat "; " es)

let test_embedded_writing_read () =
  (* A read-only body that writes through its handle is rejected at the
     write, with a typed error. Its transaction must still give its token
     back: a leaked pin stops the horizon, and every later version stays
     unretired. *)
  let sys =
    System.create ~secondaries:1 ~guarantee:Session.Strong_session
      ~watchdog:true ()
  in
  let c = System.connect sys "c" in
  let put i =
    match System.update sys c (fun h -> Handle.put h "k" (string_of_int i)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  in
  put 0;
  System.pump sys;
  (match System.read sys c (fun h -> Handle.put h "k" "read-only") with
  | () -> Alcotest.fail "a writing read ended"
  | exception Handle.Read_only { key } ->
    Alcotest.(check string) "the key written" "k" key);
  for i = 1 to 200 do
    put i
  done;
  System.pump sys;
  let w = Option.get (System.watchdog sys) in
  check_bool
    (Printf.sprintf "horizon advanced (%d)" (Watchdog.horizon w))
    true
    (Watchdog.horizon w > 200);
  check_bool
    (Printf.sprintf "state retired (%d)" (Watchdog.state_size w))
    true
    (Watchdog.state_size w < 10);
  check_core_unpinned sys

let test_retired_chain_reads_base () =
  (* A key whose only live version retires keeps its record: reads then
     expect the folded base value, and a later write starts a new chain
     above it. A retired delete reads as absent. *)
  let w = Watchdog.create ~guarantee:Session.Weak () in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in
  let commit ts writes =
    let tok = Watchdog.begin_txn w ~session:"writer" in
    let id = fresh_id () in
    Watchdog.end_update w tok ~id ~now:(float_of_int id)
      ~commit_ts:ts
      ~writes:(List.map (fun (key, value) -> { Lsr_storage.Wal.key; value }) writes)
      ~snapshot:(ts - 1) ~reads:(History.reads ())
  in
  (* The expected value of each key at [snapshot], read back from the
     mismatch alerts that observing a sentinel value raises. *)
  let expected ~snapshot keys =
    let id = fresh_id () in
    let tok = Watchdog.begin_txn w ~session:"reader" in
    Watchdog.end_read w tok ~id ~site:"secondary-0" ~now:(float_of_int id)
      ~snapshot ~reads:(Fixtures.served_of_list (List.map (fun k -> (k, Some "<probe>")) keys));
    List.filter_map
      (fun (a : Watchdog.alert) ->
        match a.Watchdog.kind with
        | Watchdog.Read_mismatch { key; expected; _ } when a.Watchdog.txn = id ->
          Some (key, expected)
        | _ -> None)
      (Watchdog.alerts w)
    |> List.sort compare
  in
  let check_expected msg want got =
    Alcotest.(check (list (pair string (option string)))) msg want got
  in
  commit 1 [ ("x", Some "a"); ("y", Some "b") ];
  commit 2 [ ("y", None) ];
  Watchdog.retire_below w 2;
  check_int "every version retired" 0 (Watchdog.live_versions w);
  check_int "three versions folded into the base" 3 (Watchdog.retired_versions w);
  check_expected "retired chain reads the base; retired delete is absent"
    [ ("x", Some "a"); ("y", None) ]
    (expected ~snapshot:2 [ "x"; "y" ]);
  commit 3 [ ("x", Some "c") ];
  check_expected "old snapshot still reads the base" [ ("x", Some "a") ]
    (expected ~snapshot:2 [ "x" ]);
  check_expected "new snapshot reads the new chain" [ ("x", Some "c") ]
    (expected ~snapshot:3 [ "x" ]);
  Watchdog.retire_below w 3;
  check_expected "the rewrite folds into the base" [ ("x", Some "c"); ("y", None) ]
    (expected ~snapshot:3 [ "x"; "y" ])

(* The horizon sweeps a session's floors while one of that session's reads
   is in flight: the session's record must survive the sweep, so the floor
   the read raises at its end is there for the session's next read. Another
   session's open read at snapshot 1 holds the horizon its caller passes at
   1, where the session's only floors (its update at ts 1) are swept; the
   in-flight read at snapshot 5 then raises the session floor to 5, and the
   session's next read, at snapshot 3 (above the horizon), is an in-session
   inversion. *)
let test_sweep_keeps_held_session () =
  let w = Watchdog.create ~guarantee:Session.Strong_session () in
  let commit ~session ts =
    let tok = Watchdog.begin_txn w ~session in
    Watchdog.end_update w tok ~id:ts ~now:(float_of_int ts)
      ~commit_ts:ts ~writes:[ { Lsr_storage.Wal.key = session; value = Some "v" } ]
      ~snapshot:(ts - 1) ~reads:(History.reads ())
  in
  commit ~session:"s" 1;
  let pin = Watchdog.begin_txn w ~session:"q" in
  (* 64 other sessions' floors, so the next retirement sweeps. *)
  for ts = 2 to 65 do
    commit ~session:(Printf.sprintf "o%d" ts) ts
  done;
  let held = Watchdog.begin_txn w ~session:"s" in
  let size = Watchdog.state_size w in
  Watchdog.retire_below w 1;
  check_int "the horizon is the one passed" 1 (Watchdog.horizon w);
  check_int "its update retired (version and commit), its three floors swept"
    (size - 5) (Watchdog.state_size w);
  let end_read tok ~id ~snapshot =
    Watchdog.end_read w tok ~id ~site:"secondary-0" ~now:(float_of_int id)
      ~snapshot ~reads:(History.reads ())
  in
  end_read held ~id:100 ~snapshot:5;
  end_read (Watchdog.begin_txn w ~session:"s") ~id:101 ~snapshot:3;
  end_read pin ~id:102 ~snapshot:1;
  match Watchdog.alerts w with
  | [ { Watchdog.txn = 101;
        kind = Watchdog.Inversion { level = Watchdog.In_session; earlier = 100; floor = 5 };
        _ } ] -> ()
  | alerts ->
    Alcotest.failf "want one in-session inversion of txn 101 behind txn 100, got %d alerts"
      (List.length alerts)

(* The core owns the horizon: a read open at site 0 holds it, and the
   watchdog's with it, at the read's snapshot while a later update commits
   and refreshes past it. Once the read has ended, the next refresh commit
   lifts both. *)
let test_open_read_holds_horizon () =
  let sys =
    System.create ~secondaries:1 ~guarantee:Session.Weak ~watchdog:true ()
  in
  let c = System.connect sys "c" in
  let put v =
    match System.update sys c (fun h -> Handle.put h "k" v) with
    | Ok () -> System.pump sys
    | Error _ -> Alcotest.fail "update aborted"
  in
  let rs = System.replica_set sys and w = Option.get (System.watchdog sys) in
  let seq () = Secondary.seq_dbsec (System.secondary sys 0) in
  put "a";
  let snapshot = seq () in
  System.read sys c (fun h ->
      put "b";
      check_bool "the refresh committed past the read" true (seq () > snapshot);
      check_int "the core's horizon stays at the read's snapshot" snapshot
        (Replica_set.horizon rs);
      check_int "and the watchdog's" snapshot (Watchdog.horizon w);
      Alcotest.(check (option string)) "the read sees its snapshot" (Some "a")
        (Handle.get h "k"));
  put "c";
  check_int "the core's horizon rises to the site's seq" (seq ())
    (Replica_set.horizon rs);
  check_int "and the watchdog's with it" (seq ()) (Watchdog.horizon w)

(* Only a violation triggers the flight recorder the watchdog was created
   with: under strong session SI, another session's inversion is counted
   and passes; the session's own inversion is the first alert, and the
   capture implicates the reader and its witness. *)
let test_first_violation_triggers () =
  let flight = Lsr_obs.Flight.create () in
  let w =
    Watchdog.create ~flight ~guarantee:Session.Strong_session ()
  in
  let tok = Watchdog.begin_txn w ~session:"a" in
  Watchdog.end_update w tok ~id:1 ~now:1.
    ~commit_ts:1 ~writes:[ { Lsr_storage.Wal.key = "k"; value = Some "v" } ]
    ~snapshot:0 ~reads:(History.reads ());
  let read ~session ~id =
    let tok = Watchdog.begin_txn w ~session in
    Watchdog.end_read w tok ~id ~site:"secondary-0" ~now:(float_of_int id)
      ~snapshot:0 ~reads:(History.reads ())
  in
  read ~session:"b" ~id:2;
  check_int "the other session's inversion is counted" 1
    (Watchdog.verdict w).Watchdog.v_inversions_all;
  check_bool "and triggers nothing" false (Lsr_obs.Flight.triggered flight);
  read ~session:"a" ~id:3;
  let v = Watchdog.verdict w in
  check_int "the session's own inversion is the one alert" 1
    v.Watchdog.alerts_total;
  match
    Lsr_obs.Flight.parse_bundle
      (Lsr_obs.Flight.bundle_json flight ~config:(Json.Obj []))
  with
  | Error e -> Alcotest.failf "bundle does not parse: %s" e
  | Ok b ->
    Alcotest.(check string) "reason" "watchdog" b.Lsr_obs.Flight.reason;
    Alcotest.(check (list int))
      "implicates the reader and its witness" [ 3; 1 ]
      b.Lsr_obs.Flight.implicated

(* The price of a key: written once and retired, a key costs its two
   key-table slots (the table doubles at half full), one slot in each of
   its three columns (name, base, newest version) and its name, an 8-byte
   string of 3 words; every 1,024 keys the columns add a chunk header
   each. Its one version has retired, so the ring holds only its spare
   chunk, the same at any key count, and the keys share one value. At a
   filled capacity, committing and retiring a version allocates nothing
   beyond the token: the key has its slots and the spare chunk is
   reused. *)
let test_key_footprint () =
  let n = 1024 in
  let names = Array.init (2 * n) (Printf.sprintf "k%07d") in
  let value = Some "v" and reads = History.reads () in
  let commit w tok ts key =
    Watchdog.end_update w tok ~id:ts ~now:1. ~commit_ts:ts
      ~writes:[ { Lsr_storage.Wal.key; value } ] ~snapshot:(ts - 1) ~reads;
    Watchdog.retire_below w ts
  in
  let filled n =
    let w = Watchdog.create ~guarantee:Session.Weak () in
    let empty = Obj.reachable_words (Obj.repr w) in
    for ts = 1 to n do
      commit w (Watchdog.begin_txn w ~session:"writer") ts names.(ts - 1)
    done;
    (w, Obj.reachable_words (Obj.repr w) - empty)
  in
  let _, words = filled n in
  let w, words2 = filled (2 * n) in
  check_int "8 words a key and a header a column per 1,024 keys" ((8 * n) + 3)
    (words2 - words);
  check_int "every version retired" 0 (Watchdog.live_versions w);
  (* Three chunks' worth of versions, so the spare is taken and given back
     three times; the tokens and the write lists are made beforehand. *)
  let m = 3 * n in
  let tokens = Array.init m (fun _ -> Watchdog.begin_txn w ~session:"writer") in
  let writes =
    Array.init m (fun i -> [ { Lsr_storage.Wal.key = names.(i mod (2 * n)); value } ])
  in
  let before = Gc.minor_words () in
  for i = 0 to m - 1 do
    let ts = (2 * n) + 1 + i in
    Watchdog.end_update w tokens.(i) ~id:ts ~now:1. ~commit_ts:ts
      ~writes:writes.(i) ~snapshot:(ts - 1) ~reads;
    Watchdog.retire_below w ts
  done;
  Alcotest.(check (float 0.)) "end_update and retire_below allocate nothing" 0.
    (Gc.minor_words () -. before);
  check_int "every version retired again" (2 * n + m) (Watchdog.retired_versions w)

(* A synthetic history whose live window spans more than three of the
   watchdog's 1,024-version chunks: a read open from early on pins the
   horizon while 3,300 to 4,100 versions accumulate over 1 to 12 keys, so
   the chunk ring doubles to hold them. Once it ends, retirement empties
   chunks and the ring wraps: over 9,000 versions pass through a ring of
   at most 8 chunks. Reads of every key at random snapshots up to 2,500
   commits old, each finishing at once, walk key chains across chunk
   boundaries and hold the horizon that far back; 1 read in 16 observes a
   planted wrong value. Returns the history and the versions written. *)
let chunk_history seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nkeys = 1 + int 12 in
  let h = History.create () in
  let versions = Array.make nkeys [] (* (ts, value), newest first *) in
  let value_at k s =
    match List.find_opt (fun (ts, _) -> ts <= s) versions.(k) with
    | Some (_, v) -> v
    | None -> None
  in
  let clock = ref 0 and cur = ref 0 and written = ref 0 and ids = ref 0 in
  let tick () = incr clock; !clock in
  let fresh () = incr ids; !ids in
  let read_all s =
    Fixtures.reads_of_list
      (List.init nkeys (fun k ->
           ( Printf.sprintf "k%d" k,
             if int 16 = 0 then Some "planted" else value_at k s )))
  in
  let add ~first_op ~finished ~snapshot ?commit_ts ?(writes = []) reads =
    let read_keys, read_values = reads in
    Fixtures.add h
      { History.id = fresh (); session = "s"; site = "secondary-0";
        kind = (if commit_ts = None then History.Read_only else History.Update);
        first_op; finished; snapshot; commit_ts; read_keys; read_values;
        writes; fence = None }
  in
  let update () =
    let k0 = int nkeys in
    let ks = if nkeys > 1 && int 2 = 0 then [ k0; (k0 + 1) mod nkeys ] else [ k0 ] in
    let ts = !cur + 1 in
    let writes =
      List.map
        (fun k ->
          let value = if int 10 = 0 then None else Some (Printf.sprintf "v%d" ts) in
          versions.(k) <- (ts, value) :: versions.(k);
          { Lsr_storage.Wal.key = Printf.sprintf "k%d" k; value })
        ks
    in
    let first_op = tick () in
    add ~first_op ~finished:(tick ()) ~snapshot:!cur ~commit_ts:ts ~writes
      ([||], [||]);
    cur := ts;
    written := !written + List.length ks;
    if int 8 = 0 then begin
      let s = Int.max 0 (!cur - int 2500) in
      let first_op = tick () in
      add ~first_op ~finished:(tick ()) ~snapshot:s (read_all s)
    end
  in
  for _ = 1 to 50 do update () done;
  let pin_first = tick () and pin_snapshot = !cur in
  let pinned = !written + 3300 + int 800 in
  while !written < pinned do update () done;
  add ~first_op:pin_first ~finished:(tick ()) ~snapshot:pin_snapshot
    (read_all pin_snapshot);
  let total = !written + 6000 + int 1000 in
  while !written < total do update () done;
  (h, !written)

(* The read mismatches of [h] counted straight off the definition: a read
   at snapshot [s] should observe its key's newest committed write at or
   below [s], absent if there is none. *)
let brute_mismatches h =
  let txns = History.transactions h in
  let writes = Hashtbl.create 16 in
  List.iter
    (fun (x : History.txn) ->
      match x.commit_ts with
      | Some ts ->
        List.iter
          (fun { Lsr_storage.Wal.key; value } -> Hashtbl.add writes key (ts, value))
          x.writes
      | None -> ())
    txns;
  let expected key s =
    snd
      (List.fold_left
         (fun (bts, bv) (ts, v) -> if ts <= s && ts > bts then (ts, v) else (bts, bv))
         (-1, None) (Hashtbl.find_all writes key))
  in
  List.fold_left
    (fun n (x : History.txn) ->
      if x.kind <> History.Read_only then n
      else
        Fixtures.read_list x
        |> List.filter (fun (key, observed) -> observed <> expected key x.snapshot)
        |> List.length
        |> ( + ) n)
    0 txns

let prop_chunk_window =
  QCheck.Test.make ~name:"reads across chunks match a brute-force count" ~count:12
    QCheck.small_nat (fun seed ->
      let h, written = chunk_history seed in
      let w = Watchdog.replay ~guarantee:Session.Weak h in
      Watchdog.live_versions w + Watchdog.retired_versions w = written
      && written > 9 * 1024
      && (Watchdog.verdict w).Watchdog.read_mismatches = brute_mismatches h)

let () =
  Alcotest.run "lsr_watchdog"
    [
      ( "differential",
        [
          Alcotest.test_case "all guarantees" `Slow test_differential_guarantees;
          Alcotest.test_case "session migration" `Slow
            test_differential_migration;
          Alcotest.test_case "fence mixes" `Slow test_differential_fences;
          Alcotest.test_case "chaos faults" `Slow test_differential_faults;
          Alcotest.test_case "high abort rate" `Slow test_differential_abortive;
          Alcotest.test_case "contended keys, jittered refresh" `Slow
            test_differential_contended;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "never perturbs the run" `Quick
            test_watchdog_never_perturbs;
          Alcotest.test_case "alerts sorted, counted, bounded" `Quick
            test_alerts_sorted_and_bounded;
          Alcotest.test_case "only a violation triggers the recorder" `Quick
            test_first_violation_triggers;
          Alcotest.test_case "bounded memory vs run length" `Slow
            test_bounded_memory;
          Alcotest.test_case "key footprint" `Quick test_key_footprint;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_chunk_window ] );
      ( "embedded",
        [
          Alcotest.test_case "inversion alert + post-hoc agreement" `Quick
            test_embedded_inversion_alert;
          Alcotest.test_case "aborted reads not judged" `Quick
            test_embedded_aborted_reads_not_judged;
          Alcotest.test_case "a sweep keeps a held session" `Quick
            test_sweep_keeps_held_session;
          Alcotest.test_case "an open read holds the horizon" `Quick
            test_open_read_holds_horizon;
          Alcotest.test_case "retired chain reads the base" `Quick
            test_retired_chain_reads_base;
          Alcotest.test_case "continuous retirement" `Quick
            test_embedded_retirement;
          Alcotest.test_case "crash and recovery" `Quick test_embedded_recovery;
          Alcotest.test_case "a raising body releases its token" `Quick
            test_embedded_raising_body;
          Alcotest.test_case "a writing read releases its token" `Quick
            test_embedded_writing_read;
          Alcotest.test_case "System.check reports the watchdog" `Quick
            test_embedded_check_reports_watchdog;
          Alcotest.test_case "a replayed alert prints its tick" `Quick
            test_replayed_alert_prints_tick;
        ] );
    ]
