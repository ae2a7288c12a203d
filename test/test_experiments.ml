(* Tests for the experiment layer (lsr_experiments): metrics reduction, the
   simulated replicated system, its validation against the checker, the
   ablation switches, and result rendering. Simulation runs here use small
   configurations so the suite stays fast. *)

open Lsr_core
open Lsr_workload
open Lsr_experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Metrics ---------------------------------------------------------------- *)

let test_metrics_warmup_filtering () =
  let obs = Lsr_obs.Obs.create () in
  let m = Metrics.create ~obs ~warmup:100. ~cap:3. in
  let hist name = Lsr_obs.Obs.hist_count (Lsr_obs.Obs.histogram obs name) in
  Metrics.note_completion m ~now:50. ~response_time:1. ~is_update:false;
  Metrics.note_refresh m ~now:50. ~staleness:2.;
  check_int "warm-up completions ignored" 0 (Metrics.fast_completions m);
  check_int "warm-up read rt not tallied" 0
    (Lsr_sim.Stat.count (Metrics.read_rt m));
  check_int "warm-up read rt in the registry" 1 (hist "client.read_rt");
  check_int "warm-up refresh not tallied" 0 (Metrics.refresh_commits m);
  Metrics.note_completion m ~now:150. ~response_time:1. ~is_update:false;
  Metrics.note_completion m ~now:160. ~response_time:5. ~is_update:true;
  check_int "only fast ones counted" 1 (Metrics.fast_completions m);
  check_int "read rt recorded" 1 (Lsr_sim.Stat.count (Metrics.read_rt m));
  check_int "update rt recorded" 1 (Lsr_sim.Stat.count (Metrics.update_rt m));
  check_int "registry saw every read" 2 (hist "client.read_rt")

let test_metrics_counters () =
  let m = Metrics.create ~obs:Lsr_obs.Obs.null ~warmup:0. ~cap:3. in
  Metrics.note_abort m ~now:1.;
  Metrics.note_block m ~now:1. ~wait:2.5;
  Metrics.note_refresh m ~now:1. ~staleness:7.;
  Metrics.note_wasted_ops m ~now:1. 4;
  check_int "aborts" 1 (Metrics.aborts m);
  check_int "blocked" 1 (Metrics.blocked_reads m);
  Alcotest.(check (float 1e-9)) "wait" 2.5 (Lsr_sim.Stat.mean (Metrics.block_wait m));
  Alcotest.(check (float 1e-9)) "staleness" 7.
    (Lsr_sim.Stat.mean (Metrics.refresh_staleness m));
  check_int "refreshes" 1 (Metrics.refresh_commits m);
  check_int "wasted" 4 (Metrics.wasted_ops m)

(* --- Sim_system --------------------------------------------------------------- *)

let tiny_params =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = 5;
    warmup = 20.;
    duration = 180.;
    propagation_delay = 5.;
  }

let run ?(params = tiny_params) ?(seed = 11) ?(record = false) ?(serial = false)
    ?(ship = false) guarantee =
  Sim_system.run
    {
      (Sim_system.config params guarantee ~seed) with
      Sim_system.record_history = record;
      serial_refresh = serial;
      ship_aborted = ship;
    }

let test_sim_produces_work () =
  let o = run Session.Weak in
  check_bool "transactions completed" true (o.Sim_system.reads_completed > 50);
  check_bool "updates completed" true (o.Sim_system.updates_completed > 5);
  check_bool "refreshes happened" true (o.Sim_system.refresh_commits > 5);
  check_bool "throughput positive" true (o.Sim_system.throughput_fast > 0.)

let test_sim_all_guarantees_validate () =
  List.iter
    (fun g ->
      let o = run ~record:true g in
      Alcotest.(check (list string))
        (Session.guarantee_name g ^ " checker clean")
        [] o.Sim_system.check_errors)
    [ Session.Strong_session; Weak; Strong ]

let test_sim_weak_never_blocks () =
  let o = run Session.Weak in
  check_int "no blocked reads under weak" 0 o.Sim_system.blocked_reads

let test_sim_blocking_ordering () =
  (* Strong blocks at least as much as session, which blocks more than
     weak (zero). *)
  let weak = run Session.Weak in
  let session = run Session.Strong_session in
  let strong = run Session.Strong in
  check_bool "session blocks some reads" true (session.Sim_system.blocked_reads > 0);
  check_bool "strong blocks more" true
    (strong.Sim_system.blocked_reads >= session.Sim_system.blocked_reads);
  check_int "weak blocks none" 0 weak.Sim_system.blocked_reads

let test_sim_strong_read_rt_dominates () =
  let weak = run Session.Weak in
  let strong = run Session.Strong in
  check_bool "strong SI read latency much larger" true
    (strong.Sim_system.read_rt_mean > 2. *. weak.Sim_system.read_rt_mean)

let test_sim_deterministic () =
  let a = run ~seed:99 Session.Strong_session in
  let b = run ~seed:99 Session.Strong_session in
  check_bool "same seed, identical outcome" true
    (a.Sim_system.throughput_fast = b.Sim_system.throughput_fast
    && a.Sim_system.read_rt_mean = b.Sim_system.read_rt_mean
    && a.Sim_system.reads_completed = b.Sim_system.reads_completed);
  let c = run ~seed:100 Session.Strong_session in
  check_bool "different seed, different run" true
    (a.Sim_system.reads_completed <> c.Sim_system.reads_completed)

(* The smoke-size shapes of the three simulated benchmark workloads
   (open-weak, closed-session, verified-session), rebuilt from public
   configuration so the fingerprint below pins their outcomes. *)
let bench_shape ~clients ~think_time ~propagation ?(size = (5, 15)) ~duration
    guarantee =
  let params =
    {
      Params.default with
      Params.num_secondaries = 2;
      clients_per_secondary = clients;
      think_time;
      op_service_time = 1e-6;
      propagation_delay = propagation;
      warmup = 0.1;
      duration;
      tran_size_min = fst size;
      tran_size_max = snd size;
    }
  in
  Sim_system.config params guarantee ~seed:20060912

let bench_shapes ~duration =
  let think = Params.default.Params.think_time in
  let bench_shape = bench_shape ~duration in
  [
    ( "open-weak",
      {
        (bench_shape ~clients:20_000 ~think_time:think ~propagation:1.0
           Session.Weak)
        with
        Sim_system.client_mode =
          Sim_system.Open_loop
            { clients = 20_000; arrival = Sim_system.Poisson; session_pool = 0 };
      } );
    ( "closed-session",
      bench_shape ~clients:5_000 ~think_time:think ~propagation:1.0
        Session.Strong_session );
    ( "verified-session",
      {
        (bench_shape ~clients:20_000 ~think_time:think ~propagation:0.5
           ~size:(2, 6) Session.Strong_session)
        with
        Sim_system.client_mode =
          Sim_system.Open_loop
            { clients = 20_000; arrival = Sim_system.Poisson; session_pool = 4096 };
        watchdog = true;
        flight = Lsr_obs.Flight.create ();
      } );
  ]

let fingerprint (o : Sim_system.outcome) =
  Printf.sprintf "events=%d reads=%d updates=%d refresh=%d rt95=%h age95=%h util=%h"
    o.Sim_system.sim_events o.Sim_system.reads_completed
    o.Sim_system.updates_completed o.Sim_system.refresh_commits
    o.Sim_system.read_rt_p95 o.Sim_system.read_age_p95
    o.Sim_system.primary_utilization

(* Recorded before the event engine's zero-delay lane, the lazy MVCC key
   index and Printf-free key generation: a change that only speeds up the
   simulator must leave every outcome bit-identical. The smoke runs end
   before the first propagation cycle, so each shape is pinned a second
   time over 2 virtual seconds, which also covers propagation and refresh.
   The quantiles are histogram bucket midpoints: each has the top 6
   mantissa bits of the exact nearest-rank sample, then a set bit.
   The event counts and the utilization's last bits last moved when a
   transaction became one processor-sharing job (one sum of k·d instead of
   k sums of d); the counts and quantiles did not. The closed-loop counts
   fell by the 10,000 clients when each client began to start in place,
   without a start event; nothing else moved. They rose when a resource
   stopped cancelling the completion event an arrival or completion
   supersedes, which now fires as a no-op; nothing else moved. *)
let expected_fingerprints =
  [
    ( "open-weak",
      "events=11377 reads=1849 updates=421 refresh=0 rt95=0x1.f6p-17 \
       age95=0x1.eap-2 util=0x1.6798958d9b49dp-7" );
    ( "closed-session",
      "events=2030 reads=434 updates=98 refresh=0 rt95=0x1.f6p-17 \
       age95=0x1.eap-2 util=0x1.48ba83f4ec77cp-9" );
    ( "verified-session",
      "events=11183 reads=1774 updates=421 refresh=0 rt95=0x1.92p-18 \
       age95=0x1.eap-2 util=0x1.1dffc5479cc2dp-8" );
    ( "open-weak@2s",
      "events=55238 reads=8745 updates=2134 refresh=2278 rt95=0x1.f6p-17 \
       age95=0x1.eap-1 util=0x1.737110e453a27p-7" );
    ( "closed-session@2s",
      "events=10934 reads=2167 updates=546 refresh=562 rt95=0x1.f6p-17 \
       age95=0x1.eap-1 util=0x1.7c2ca148ba4dfp-9" );
    ( "verified-session@2s",
      "events=59882 reads=8677 updates=2134 refresh=3344 rt95=0x1.92p-18 \
       age95=0x1.e6p-2 util=0x1.28b6d86ebdb8bp-8" );
  ]

let test_sim_outcome_pinned () =
  Alcotest.(check (list (pair string string)))
    "smoke-size outcomes" expected_fingerprints
    (List.concat_map
       (fun (suffix, duration) ->
         List.map
           (fun (name, cfg) -> (name ^ suffix, fingerprint (Sim_system.run cfg)))
           (bench_shapes ~duration))
       [ ("", 0.5); ("@2s", 2.0) ])

let test_sim_closed_setup_fires_nothing () =
  (* A closed-loop client starts in place: its first think timer goes
     straight into the queue, so set-up fires no event per client and a
     run that ends at time 0 fires as many events at 10 clients per site as
     at 1,000. *)
  let events clients =
    let params =
      {
        tiny_params with
        Params.clients_per_secondary = clients;
        warmup = 0.;
        duration = 0.;
      }
    in
    (Sim_system.run (Sim_system.config params Session.Strong_session ~seed:11))
      .Sim_system.sim_events
  in
  check_int "events fired at time 0" (events 10) (events 1_000)

(* A zero propagation period would re-fire the propagator at time 0
   forever. The non-finite and negative periods come first: without the
   check in [run], [Engine.every] rejects them without naming the
   parameter, so the test fails on them before the zero period can hang
   it. *)
let test_sim_rejects_propagation_delay () =
  List.iter
    (fun delay ->
      let params =
        {
          tiny_params with
          Params.num_secondaries = 1;
          clients_per_secondary = 2;
          warmup = 0.;
          duration = 1.;
          propagation_delay = delay;
        }
      in
      Alcotest.check_raises (Printf.sprintf "propagation_delay = %g" delay)
        (Invalid_argument
           "Sim_system.run: propagation_delay must be positive and finite")
        (fun () ->
          ignore
            (Sim_system.run
               (Sim_system.config params Session.Strong_session ~seed:11))))
    [ Float.nan; Float.infinity; -1.; 0. ]

let test_sim_serial_refresh_staler () =
  (* Serial refresh cannot be fresher than concurrent applicators. *)
  let conc = run ~seed:5 Session.Strong_session in
  let serial = run ~seed:5 ~serial:true Session.Strong_session in
  check_bool "serial refresh staleness >= concurrent" true
    (serial.Sim_system.refresh_staleness_mean
    >= conc.Sim_system.refresh_staleness_mean -. 0.5);
  let o = run ~record:true ~serial:true Session.Strong_session in
  Alcotest.(check (list string)) "serial refresh still correct" []
    o.Sim_system.check_errors

let test_sim_refresh_pipeline () =
  (* Refreshes of different sizes share a site's processor, so concurrent
     applicators finish applying out of commit order; each still commits
     only after its predecessor, and the refresher starts no refresh while
     one is pending. When every refresh is empty, each applicator waits for
     its predecessor at once, the first one for seq(DBsec) = 0. The last
     propagation cycle ships at 55 s, so by the end of the run every
     shipped commit is applied at every site and nothing is left in, or
     parked on, a pending queue. *)
  let mixed =
    {
      tiny_params with
      Params.clients_per_secondary = 20;
      warmup = 0.;
      duration = 58.;
      propagation_delay = 5.;
    }
  in
  let empty = { mixed with Params.tran_size_min = 0; tran_size_max = 0 } in
  List.iter
    (fun (sizes, params, serial) ->
      let open Lsr_obs in
      let tag = sizes ^ if serial then " serial" else " concurrent" in
      let obs = Obs.create () in
      let o =
        Sim_system.run
          {
            (Sim_system.config params Session.Strong_session ~seed:11) with
            Sim_system.serial_refresh = serial;
            obs;
            flight = Flight.create ~capacity:(1 lsl 16) ();
          }
      in
      let b =
        match Flight.parse_bundle (Option.get o.Sim_system.flight_report) with
        | Ok b -> b
        | Error e -> Alcotest.fail e
      in
      check_int (tag ^ ": nothing evicted") 0 b.Flight.dropped;
      let events = Array.to_list b.Flight.window in
      let commit_ts txn =
        List.find_map
          (fun e ->
            match e.Flight.ev with
            | Flight.Commit c when c.txn = txn -> Some c.commit_ts
            | _ -> None)
          events
      in
      let shipped =
        List.filter_map
          (fun e ->
            match e.Flight.ev with
            | Flight.Shipped { txn; _ } -> commit_ts txn
            | _ -> None)
          events
      in
      check_bool (tag ^ ": several cycles shipped") true
        (List.length shipped > 20);
      List.iter
        (fun { Sim_system.res_site = site; _ } ->
          if site <> "primary" then begin
            let committed =
              List.filter_map
                (fun e ->
                  match e.Flight.ev with
                  | Flight.Refresh_commit { commit_ts; _ }
                    when e.Flight.site = Some site ->
                    Some commit_ts
                  | _ -> None)
                events
            in
            Alcotest.(check (list int))
              (tag ^ ": " ^ site ^ " commits every shipped txn in commit order")
              shipped committed;
            List.iter
              (fun queue ->
                Alcotest.(check (float 0.))
                  (Printf.sprintf "%s: %s %s empty" tag site queue)
                  0.
                  (Obs.gauge_value (Obs.gauge obs (site ^ "." ^ queue))))
              [ "update_queue_depth"; "pending_depth" ]
          end)
        o.Sim_system.resources)
    [
      ("mixed", mixed, false);
      ("mixed", mixed, true);
      ("empty", empty, false);
      ("empty", empty, true);
    ]

let test_sim_ship_aborted_wastes_work () =
  let params = { tiny_params with Params.abort_prob = 0.2 } in
  let eager = run ~params ~ship:true Session.Weak in
  let lazy_ = run ~params Session.Weak in
  check_bool "eager mode executes wasted ops" true (eager.Sim_system.wasted_ops > 0);
  check_int "commit-time mode wastes nothing" 0 lazy_.Sim_system.wasted_ops

let test_sim_ship_aborted_still_correct () =
  let params = { tiny_params with Params.abort_prob = 0.15 } in
  let o = run ~params ~ship:true ~record:true Session.Strong_session in
  Alcotest.(check (list string)) "eager ablation passes checker" []
    o.Sim_system.check_errors

let test_sim_utilization_bounds () =
  let o = run Session.Weak in
  check_bool "primary utilization in [0,1]" true
    (o.Sim_system.primary_utilization >= 0. && o.Sim_system.primary_utilization <= 1.);
  check_bool "secondary utilization in [0,1]" true
    (o.Sim_system.secondary_utilization >= 0.
    && o.Sim_system.secondary_utilization <= 1.)

let test_sim_staleness_reflects_delay () =
  (* Mean staleness is at least of the order of half the propagation cycle. *)
  let o = run Session.Weak in
  check_bool "staleness >= 1s with 5s cycles" true
    (o.Sim_system.refresh_staleness_mean >= 1.)

let test_sim_pcsi_validates () =
  let o = run ~record:true Session.Prefix_consistent in
  Alcotest.(check (list string)) "PCSI run checker clean" []
    o.Sim_system.check_errors;
  check_bool "PCSI blocks fewer reads than strong session" true
    (o.Sim_system.blocked_reads
    <= (run Session.Strong_session).Sim_system.blocked_reads)

let run_migrating ?(record = false) guarantee =
  (* Strong jitter + always-migrating reads: the configuration where the
     read floor demonstrably matters (replicas diverge by many seconds and
     every read may land on a staler copy than the one before). *)
  let params = { tiny_params with Params.propagation_jitter = 20. } in
  Sim_system.run
    {
      (Sim_system.config params guarantee ~seed:31) with
      Sim_system.migrate_prob = 1.0;
      record_history = record;
    }

let test_sim_migration_validates () =
  List.iter
    (fun g ->
      let o = run_migrating ~record:true g in
      Alcotest.(check (list string))
        (Session.guarantee_name g ^ " migrating run clean")
        [] o.Sim_system.check_errors)
    [ Session.Strong_session; Session.Prefix_consistent; Session.Weak ]

let test_sim_migration_pcsi_waits_less () =
  (* Under migration, strong session SI's read floor forces extra waits that
     PCSI does not require. *)
  let session = run_migrating Session.Strong_session in
  let pcsi = run_migrating Session.Prefix_consistent in
  check_bool "PCSI blocks fewer migrated reads" true
    (pcsi.Sim_system.blocked_reads < session.Sim_system.blocked_reads)

let test_sim_contention_fcw_aborts () =
  (* Skewed keys make the real first-committer-wins rule fire at the
     primary; the run must still satisfy its guarantee and completeness
     (abort records propagate, secondaries discard the work). *)
  let params =
    {
      tiny_params with
      Params.key_skew = 1.2;
      key_space = 50;
      clients_per_secondary = 10;
      abort_prob = 0. (* isolate real conflicts from forced aborts *);
    }
  in
  let o = run ~params ~record:true Session.Strong_session in
  check_bool "real conflicts occurred" true (o.Sim_system.fcw_aborts > 0);
  check_int "all aborts are conflicts" o.Sim_system.fcw_aborts
    o.Sim_system.aborts;
  Alcotest.(check (list string)) "contended run still correct" []
    o.Sim_system.check_errors

(* An update attempt is one job at the primary, however many operations it
   has: every job completed there is a commit, a forced abort or a
   first-committer-wins abort. *)
let test_sim_one_job_per_attempt () =
  let params =
    {
      tiny_params with
      Params.warmup = 0.;
      key_skew = 1.2;
      key_space = 50;
      clients_per_secondary = 10;
      abort_prob = 0.05;
    }
  in
  let o = run ~params Session.Weak in
  check_bool "both kinds of abort occurred" true
    (o.Sim_system.fcw_aborts > 0 && o.Sim_system.aborts > o.Sim_system.fcw_aborts);
  let primary =
    List.find
      (fun r -> r.Sim_system.res_site = "primary")
      o.Sim_system.resources
  in
  (* [aborts] counts the forced and the first-committer-wins aborts. *)
  check_int "primary jobs = committed updates + aborts"
    (o.Sim_system.updates_completed + o.Sim_system.aborts)
    primary.Sim_system.res_completions

let test_sim_uniform_has_no_fcw () =
  let params = { tiny_params with Params.abort_prob = 0. } in
  let o = run ~params Session.Weak in
  check_int "no conflicts with 100k uniform keys" 0 o.Sim_system.fcw_aborts

let test_sim_config_defaults () =
  let cfg = Sim_system.config tiny_params Session.Weak ~seed:3 in
  check_bool "no recording by default" false cfg.Sim_system.record_history;
  check_bool "no serial refresh by default" false cfg.Sim_system.serial_refresh;
  check_bool "no eager aborts by default" false cfg.Sim_system.ship_aborted;
  check_bool "no monitor by default" false
    (Monitor.enabled cfg.Sim_system.monitor);
  Alcotest.(check (float 0.)) "no migration by default" 0.
    cfg.Sim_system.migrate_prob

(* --- Figures / Report rendering ------------------------------------------------- *)

let synthetic_figure =
  {
    Figures.id = "figX";
    title = "Synthetic";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        {
          Figures.label = "a";
          points =
            [
              { Figures.x = 1.; interval = { Lsr_stats.Confidence.mean = 10.; half_width = 0.5; n = 3 } };
              { Figures.x = 2.; interval = { Lsr_stats.Confidence.mean = 20.; half_width = 1.; n = 3 } };
            ];
        };
        {
          Figures.label = "b";
          points =
            [
              { Figures.x = 1.; interval = { Lsr_stats.Confidence.mean = 5.; half_width = 0.; n = 1 } };
              { Figures.x = 2.; interval = { Lsr_stats.Confidence.mean = 6.; half_width = 0.; n = 1 } };
            ];
        };
      ];
    notes = [ "a synthetic note" ];
  }

let test_report_render () =
  let rendered = Report.render_figure synthetic_figure in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "has id" true (contains "figX");
  check_bool "has series label" true (contains "a");
  check_bool "has interval" true (contains "10 ±0.50");
  check_bool "has note" true (contains "synthetic note")

let test_report_csv () =
  let csv = Report.csv_of_figure synthetic_figure in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "x,a mean,a ci95,b mean,b ci95" (List.hd lines);
  Alcotest.(check string) "first row" "1,10,0.5,5,0" (List.nth lines 1)

let test_report_write_csv () =
  let dir = Filename.temp_file "lsr" "" in
  Sys.remove dir;
  let path = Report.write_csv ~dir synthetic_figure in
  check_bool "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check string) "content written" "x,a mean,a ci95,b mean,b ci95" first;
  Sys.remove path;
  Sys.rmdir dir

let test_report_nonfinite_clamped () =
  (* A series with no samples can surface non-finite interval values; tables
     render them as "n/a" and CSV as empty cells, never "inf"/"nan". *)
  let broken =
    {
      synthetic_figure with
      Figures.series =
        [
          {
            Figures.label = "empty";
            points =
              [
                {
                  Figures.x = 1.;
                  interval =
                    {
                      Lsr_stats.Confidence.mean = infinity;
                      half_width = nan;
                      n = 0;
                    };
                };
              ];
          };
        ];
    }
  in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i =
      i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
    in
    scan 0
  in
  let rendered = Report.render_figure broken in
  check_bool "table clamps to n/a" true (contains "n/a" rendered);
  check_bool "table has no inf" false (contains "inf" rendered);
  let csv = Report.csv_of_figure broken in
  check_bool "csv has no inf" false (contains "inf" csv);
  check_bool "csv has no nan" false (contains "nan" csv);
  Alcotest.(check string) "csv row has empty cells" "1,,"
    (List.nth (String.split_on_char '\n' (String.trim csv)) 1)

(* --- Observability ------------------------------------------------------------ *)

let obs_run ~seed =
  let obs = Lsr_obs.Obs.create () in
  let o =
    Sim_system.run
      { (Sim_system.config tiny_params Session.Strong_session ~seed) with obs }
  in
  (o, obs)

let test_sim_obs_does_not_perturb () =
  (* Attaching an enabled registry must not change simulation outcomes: the
     observed run and the blind run are the same run. *)
  let observed, obs = obs_run ~seed:11 in
  let blind = run Session.Strong_session in
  check_bool "same outcome with observation on" true
    (observed.Sim_system.throughput_fast = blind.Sim_system.throughput_fast
    && observed.Sim_system.reads_completed = blind.Sim_system.reads_completed
    && observed.Sim_system.updates_completed
       = blind.Sim_system.updates_completed
    && observed.Sim_system.refresh_commits = blind.Sim_system.refresh_commits);
  check_bool "registry recorded reads" true
    (Lsr_obs.Obs.hist_count (Lsr_obs.Obs.histogram obs "client.read_rt") > 0)

let test_sim_obs_counters_track_outcome () =
  let o, obs = obs_run ~seed:23 in
  let count name = Lsr_obs.Obs.count (Lsr_obs.Obs.counter obs name) in
  check_bool "records were shipped" true
    (count "propagation.records_shipped" > 0);
  check_int "fcw aborts agree (uniform keys: none)" o.Sim_system.fcw_aborts
    (count "client.fcw_aborts");
  (* The registry holds each read and refresh commit once, in the site's
     instruments, warm-up included; the outcome tallies only the measured
     window, so the registry's counts can only exceed it. *)
  let hist name = Lsr_obs.Obs.hist_count (Lsr_obs.Obs.histogram obs name) in
  let per_site suffix =
    List.fold_left
      (fun acc name ->
        if String.starts_with ~prefix:"secondary-" name
           && Filename.check_suffix name suffix
        then acc + hist name
        else acc)
      0 (Lsr_obs.Obs.names obs)
  in
  check_bool "reads were sampled" true (o.Sim_system.reads_completed > 0);
  check_bool "per-site read ages cover the reads" true
    (per_site ".read_age" >= o.Sim_system.reads_completed);
  check_bool "refreshes were sampled" true (o.Sim_system.refresh_commits > 0);
  check_bool "per-site refresh lags cover the refresh commits" true
    (per_site ".refresh_lag" >= o.Sim_system.refresh_commits);
  check_bool "block waits cover the blocked reads" true
    (hist "client.block_wait" >= o.Sim_system.blocked_reads);
  check_bool "no aggregate copies" true
    (List.for_all
       (fun name -> not (List.mem name (Lsr_obs.Obs.names obs)))
       [ "refresh.commits"; "refresh.staleness"; "client.read_age";
         "client.read_missed"; "client.blocked_reads";
         "secondary-0.refresh_committed" ])

(* A run with the per-transaction recorder and the freshness registry
   attached. *)
let recorded_run ?(obs = Lsr_obs.Obs.create ())
    ?(flight = Lsr_obs.Flight.create ()) ~seed () =
  let o =
    Sim_system.run
      {
        (Sim_system.config tiny_params Session.Strong_session ~seed) with
        Sim_system.record_history = true;
        obs;
        flight;
      }
  in
  (o, obs, flight)

let test_sim_recorder_does_not_perturb () =
  (* Attaching the recorder and registry must not change the run: same
     seed with and without them produces the same outcome and a clean
     checked history either way. *)
  let traced, obs, flight = recorded_run ~seed:11 () in
  let blind = run ~record:true Session.Strong_session in
  check_bool "identical outcome with the recorder attached" true
    (traced.Sim_system.throughput_fast = blind.Sim_system.throughput_fast
    && traced.Sim_system.reads_completed = blind.Sim_system.reads_completed
    && traced.Sim_system.updates_completed = blind.Sim_system.updates_completed
    && traced.Sim_system.refresh_commits = blind.Sim_system.refresh_commits
    && traced.Sim_system.read_rt_mean = blind.Sim_system.read_rt_mean
    && traced.Sim_system.read_age_p95 = blind.Sim_system.read_age_p95
    && traced.Sim_system.read_missed_mean = blind.Sim_system.read_missed_mean
    && traced.Sim_system.check_errors = blind.Sim_system.check_errors);
  check_bool "recorder noted events" true
    (Lsr_obs.Flight.events_noted flight > 0);
  check_bool "recorder saw primary commits" true
    (List.exists
       (fun txn ->
         match Lsr_obs.Flight.journey flight ~txn with
         | Ok ({ Lsr_obs.Flight.ev = Lsr_obs.Flight.Commit _; _ } :: _) -> true
         | _ -> false)
       (Lsr_obs.Flight.txns flight));
  check_bool "registry saw freshness samples" true
    (List.exists
       (fun r -> r.Lag_report.reads > 0)
       (Lag_report.of_obs obs))

let test_sim_recorder_exports_deterministic () =
  (* Same seed, fresh observers: the recorder's bundle and the lag report
     are byte-identical; a different seed diverges. *)
  let _, oa, fa = recorded_run ~seed:11 () in
  let _, ob, fb = recorded_run ~seed:11 () in
  let _, oc, fc = recorded_run ~seed:12 () in
  let bundle f =
    Lsr_obs.Json.to_string
      (Lsr_obs.Flight.bundle_json f ~config:(Lsr_obs.Json.Obj []))
  in
  let lag obs =
    Lsr_obs.Json.to_string (Lag_report.to_json (Lag_report.of_obs obs))
  in
  Alcotest.(check string) "bundle bytes identical" (bundle fa) (bundle fb);
  Alcotest.(check string) "lag report bytes identical" (lag oa) (lag ob);
  check_bool "different seed, different bundle" true (bundle fa <> bundle fc);
  check_bool "different seed, different lag report" true (lag oa <> lag oc)

(* Per-site freshness histograms as bucket counts, from the metrics dump. *)
let site_buckets obs =
  let module J = Lsr_obs.Json in
  let hists =
    match J.member "histograms" (Lsr_obs.Obs.metrics_json obs) with
    | Some (J.Obj hs) -> hs
    | _ -> Alcotest.fail "metrics dump has no histograms"
  in
  List.filter_map
    (fun (name, h) ->
      if String.starts_with ~prefix:"secondary-" name then
        match J.member "buckets" h with
        | Some (J.Arr bs) ->
          Some
            ( name,
              List.map
                (function
                  | J.Arr [ J.Num ub; J.Num n ] -> (ub, int_of_float n)
                  | _ -> Alcotest.fail "malformed bucket")
                bs )
        | _ -> Alcotest.fail "histogram without buckets"
      else None)
    hists

let test_sim_recorder_sink_spans_runs () =
  (* One registry and one recorder may span several runs (a sweep, the
     fault scenarios). Each run measures freshness and lag on its own
     commit clock, so run 2's per-site histograms equal what run 2 records
     in a fresh registry, and the recorder holds run 2 only: nothing leaks
     from run 1. *)
  let obs = Lsr_obs.Obs.create () and flight = Lsr_obs.Flight.create () in
  ignore (recorded_run ~obs ~flight ~seed:11 ());
  let run1 = site_buckets obs in
  ignore (recorded_run ~obs ~flight ~seed:12 ());
  let _, fresh_obs, fresh_flight = recorded_run ~seed:12 () in
  let fresh = site_buckets fresh_obs in
  Alcotest.(check (list string))
    "same per-site instruments" (List.map fst run1) (List.map fst fresh);
  List.iter
    (fun (name, total) ->
      let before = Option.value ~default:[] (List.assoc_opt name run1) in
      let run2 =
        List.filter_map
          (fun (ub, n) ->
            let n = n - Option.value ~default:0 (List.assoc_opt ub before) in
            if n = 0 then None else Some (ub, n))
          total
      in
      check_bool (name ^ ": run 2 sampled") true (run2 <> []);
      check_bool
        (name ^ ": run 2 equals a fresh registry's")
        true
        (run2 = List.assoc name fresh))
    (site_buckets obs);
  let bundle f =
    Lsr_obs.Json.to_string
      (Lsr_obs.Flight.bundle_json f ~config:(Lsr_obs.Json.Obj []))
  in
  Alcotest.(check string)
    "the recorder holds run 2 only" (bundle fresh_flight) (bundle flight)

(* Walk a report: every journey ([{"txn","events"}]) holds at most one
   primary commit, and no event window holds two commits of one MVCC id. *)
let rec spliced_commits (j : Lsr_obs.Json.t) =
  let module J = Lsr_obs.Json in
  let is_commit e =
    J.member "stage" e = Some (J.Str "primary-commit")
    || J.member "kind" e = Some (J.Str "commit")
  in
  match j with
  | J.Obj kv ->
    let here =
      match (J.member "txn" j, J.member "events" j) with
      | Some (J.Num id), Some (J.Arr evs)
        when List.length (List.filter is_commit evs) > 1 ->
        [ int_of_float id ]
      | _ -> []
    in
    here @ List.concat_map (fun (_, v) -> spliced_commits v) kv
  | J.Arr l ->
    let ids =
      List.filter_map
        (fun e ->
          match J.member "txn" e with
          | Some (J.Num id) when is_commit e -> Some (int_of_float id)
          | _ -> None)
        l
    in
    let dups =
      List.filter
        (fun id -> List.length (List.filter (( = ) id) ids) > 1)
        (List.sort_uniq compare ids)
    in
    dups @ List.concat_map spliced_commits l
  | _ -> []

let test_report_never_splices_runs () =
  (* MVCC ids restart every run. A report spanning two runs must keep each
     run's transactions apart: no per-transaction section may merge two
     runs' commits under one id. *)
  let report = Run_report.create () in
  List.iter
    (fun seed ->
      ignore
        (Run_report.run report ~tag:(string_of_int seed)
           (Sim_system.config tiny_params Session.Strong_session ~seed)))
    [ 11; 12 ];
  Alcotest.(check (list int))
    "no MVCC id carries two primary commits" []
    (spliced_commits (Run_report.to_json report))

let test_report_channels () =
  (* The report keeps every fault-channel count the outcome holds, once per
     run, and [null] for a run without fault channels. *)
  let module J = Lsr_obs.Json in
  let report = Run_report.create () in
  let faulty =
    Run_report.run report ~tag:"faulty"
      {
        (Sim_system.config tiny_params Session.Strong_session ~seed:11) with
        Sim_system.faults = Some Channel.default;
      }
  in
  ignore
    (Run_report.run report ~tag:"reliable"
       (Sim_system.config tiny_params Session.Strong_session ~seed:11));
  let runs =
    match J.member "runs" (Run_report.to_json report) with
    | Some (J.Arr runs) -> runs
    | _ -> Alcotest.fail "report has no runs"
  in
  let channels run = Option.value ~default:J.Null (J.member "channels" run) in
  let c = faulty.Sim_system.channels in
  check_bool "faults fired" true (c.Channel.dropped > 0);
  let field name =
    match J.member name (channels (List.nth runs 0)) with
    | Some (J.Num v) -> int_of_float v
    | _ -> Alcotest.failf "channels.%s missing" name
  in
  List.iter
    (fun (name, v) -> check_int ("channels." ^ name) v (field name))
    [
      ("sent", c.sent); ("delivered", c.delivered); ("dropped", c.dropped);
      ("duplicated", c.duplicated); ("delayed", c.delayed);
      ("reordered", c.reordered); ("retransmitted", c.retransmitted);
      ("acks_dropped", c.acks_dropped); ("stale_ignored", c.stale_ignored);
      ("max_flight", c.max_flight); ("max_ooo", c.max_ooo);
    ];
  check_int "one key per field" 11
    (match channels (List.nth runs 0) with J.Obj kv -> List.length kv | _ -> 0);
  check_bool "no fault channels: null" true
    (J.member "channels" (List.nth runs 1) = Some J.Null)

let test_lag_report_rows () =
  let _, obs, _ = recorded_run ~seed:11 () in
  let rows = Lag_report.of_obs obs in
  check_int "one row per secondary" 2 (List.length rows);
  check_bool "rows sorted by site" true
    (List.map (fun r -> r.Lag_report.site) rows
    = List.sort String.compare (List.map (fun r -> r.Lag_report.site) rows));
  List.iter
    (fun r ->
      check_bool "freshness samples recorded" true (r.Lag_report.reads > 0);
      check_bool "refreshes recorded" true (r.Lag_report.refreshes > 0);
      check_bool "age quantiles ordered" true
        (0. <= r.Lag_report.age_p50
        && r.Lag_report.age_p50 <= r.Lag_report.age_p95
        && r.Lag_report.age_p95 <= r.Lag_report.age_p99);
      check_bool "lag quantiles ordered" true
        (0. < r.Lag_report.lag_p50
        && r.Lag_report.lag_p50 <= r.Lag_report.lag_p95
        && r.Lag_report.lag_p95 <= r.Lag_report.lag_p99);
      check_bool "missed mean within max" true
        (0. <= r.Lag_report.missed_mean
        && r.Lag_report.missed_mean <= float_of_int r.Lag_report.missed_max))
    rows

let test_lag_report_empty_site () =
  (* A site that only ever read (zero refreshes) and one that only ever
     refreshed (zero reads) must still produce finite rows: explicit zero
     quantiles for the empty section, "-" cells in the table, and
     null-free JSON. *)
  let module Obs = Lsr_obs.Obs in
  let obs = Obs.create () in
  let instrument site =
    (* The four instruments Replica_set interns together per site. *)
    ( Obs.histogram obs (site ^ ".read_age"),
      Obs.histogram obs (site ^ ".read_missed"),
      Obs.gauge obs (site ^ ".missed_commits"),
      Obs.histogram obs (site ^ ".refresh_lag") )
  in
  let age, missed, peak, _ = instrument "readersite" in
  Obs.observe age 0.;
  Obs.observe missed 0.;
  Obs.set_gauge peak 0.;
  let _, _, _, lag = instrument "refreshsite" in
  Obs.observe lag 1.;
  let rows = Lag_report.of_obs obs in
  check_int "two rows" 2 (List.length rows);
  let finite r =
    List.for_all Float.is_finite
      [
        r.Lag_report.age_p50; r.Lag_report.age_p95; r.Lag_report.age_p99;
        r.Lag_report.missed_mean; r.Lag_report.lag_p50; r.Lag_report.lag_p95;
        r.Lag_report.lag_p99;
      ]
  in
  List.iter (fun r -> check_bool "row finite" true (finite r)) rows;
  let row site = List.find (fun r -> r.Lag_report.site = site) rows in
  let ro = row "readersite" and rf = row "refreshsite" in
  check_int "reader site has no refreshes" 0 ro.Lag_report.refreshes;
  check_bool "empty lag section is zero" true
    (ro.Lag_report.lag_p50 = 0. && ro.Lag_report.lag_p99 = 0.);
  check_int "refresh-only site has no reads" 0 rf.Lag_report.reads;
  check_bool "empty age section is zero" true
    (rf.Lag_report.age_p50 = 0. && rf.Lag_report.age_p99 = 0.
    && rf.Lag_report.missed_mean = 0.);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let table = Lag_report.render rows in
  check_bool "empty sections render as explicit - cells" true
    (contains table "-");
  let json = Lsr_obs.Json.to_string (Lag_report.to_json rows) in
  check_bool "json is null-free" true (not (contains json "null"))

let test_sim_freshness_outcome () =
  (* The always-on freshness reduction lands in the outcome even without a
     registry attached. *)
  let o = run Session.Weak in
  check_bool "read age quantiles ordered" true
    (0. <= o.Sim_system.read_age_p50
    && o.Sim_system.read_age_p50 <= o.Sim_system.read_age_p95
    && o.Sim_system.read_age_p95 <= o.Sim_system.read_age_p99);
  check_bool "read age mean nonnegative" true (o.Sim_system.read_age_mean >= 0.);
  check_bool "missed mean nonnegative" true (o.Sim_system.read_missed_mean >= 0.)

let test_sim_obs_exports_deterministic () =
  (* Same seed, fresh registries: metrics exports are byte-identical; a
     different seed diverges. *)
  let _, obs_a = obs_run ~seed:11 in
  let _, obs_b = obs_run ~seed:11 in
  let _, obs_c = obs_run ~seed:12 in
  let metrics obs = Lsr_obs.Json.to_string (Lsr_obs.Obs.metrics_json obs) in
  Alcotest.(check string) "metrics bytes identical" (metrics obs_a)
    (metrics obs_b);
  check_bool "different seed, different metrics" true
    (metrics obs_a <> metrics obs_c)

let monitor_run ~seed =
  let monitor = Monitor.create ~interval:2.0 () in
  let o =
    Sim_system.run
      {
        (Sim_system.config tiny_params Session.Strong_session ~seed) with
        Sim_system.monitor;
      }
  in
  (o, monitor)

let test_sim_monitor_does_not_perturb () =
  (* The sampling process only reads state — it draws no randomness and
     wakes nothing — so with the monitor attached every outcome field is
     unchanged, bit for bit. The two meta fields are exempt by design:
     [sim_events] counts the sampler's own wakeups and [checker_cpu_s] is
     wall CPU time. *)
  let sampled, monitor = monitor_run ~seed:11 in
  let blind = run Session.Strong_session in
  let scrub (o : Sim_system.outcome) =
    { o with Sim_system.sim_events = 0; checker_cpu_s = 0. }
  in
  check_bool "every outcome field unchanged" true (scrub sampled = scrub blind);
  let series = Monitor.series monitor in
  check_bool "samples recorded" true (Lsr_obs.Timeseries.samples series <> []);
  let columns = Lsr_obs.Timeseries.columns series in
  List.iter
    (fun c -> check_bool ("column " ^ c) true (List.mem c columns))
    [
      "primary.util"; "primary.wal"; "primary.versions"; "secondary-0.util";
      "secondary-0.update_queue"; "secondary-0.pending";
      "secondary-1.versions"; "secondary-1.qlen"; "secondary-1.depth";
    ];
  (* Samples land exactly on the virtual-time grid. *)
  List.iter
    (fun (s : Lsr_obs.Timeseries.sample) ->
      check_bool "on the sampling grid" true
        (Float.rem s.Lsr_obs.Timeseries.time 2.0 = 0.))
    (Lsr_obs.Timeseries.samples series)

let test_sim_monitor_timeseries_deterministic () =
  (* Same seed, fresh monitors: the export is byte-identical; a different
     seed diverges. *)
  let json m =
    Lsr_obs.Json.to_string (Lsr_obs.Timeseries.to_json (Monitor.series m))
  in
  let _, a = monitor_run ~seed:11 in
  let _, b = monitor_run ~seed:11 in
  let _, c = monitor_run ~seed:12 in
  Alcotest.(check string) "timeseries JSON bytes identical" (json a) (json b);
  check_bool "different seed, different samples" true (json a <> json c)

(* The simulator vacuums every store once per propagation cycle, so its
   versions stay bounded by the keys written and one cycle's new versions:
   over a small key space that every run covers early, the total at 2T is
   within 10% of the total at T. Sampled one tick past a cycle, so both
   samples follow a vacuum. *)
let test_sim_versions_bounded () =
  let versions_at ~duration =
    let monitor = Monitor.create ~interval:duration () in
    let clients = 2_000 in
    let params =
      {
        Params.default with
        Params.num_secondaries = 2;
        clients_per_secondary = clients;
        key_space = 500;
        op_service_time = 1e-4;
        propagation_delay = 1.;
        warmup = 0.;
        duration;
      }
    in
    ignore
      (Sim_system.run
         {
           (Sim_system.config params Session.Weak ~seed:11) with
           Sim_system.client_mode =
             Sim_system.Open_loop
               { clients; arrival = Sim_system.Poisson; session_pool = 0 };
           monitor;
         });
    match List.rev (Lsr_obs.Timeseries.samples (Monitor.series monitor)) with
    | last :: _ ->
      List.fold_left
        (fun n (name, v) ->
          if String.ends_with ~suffix:".versions" name then n +. v else n)
        0. last.Lsr_obs.Timeseries.values
    | [] -> Alcotest.fail "no sample"
  in
  let at_t = versions_at ~duration:10.5 and at_2t = versions_at ~duration:20.5 in
  check_bool
    (Printf.sprintf "versions at 2T (%.0f) within 10%% of those at T (%.0f)"
       at_2t at_t)
    true
    (Float.abs (at_2t -. at_t) <= 0.1 *. at_t)

let test_monitor_create_validates () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Monitor.create: interval must be positive and finite")
    (fun () -> ignore (Monitor.create ~interval:0. ()));
  check_bool "null disabled" false (Monitor.enabled Monitor.null)

let test_outcome_resources () =
  let o = run Session.Strong_session in
  let sites = List.map (fun r -> r.Sim_system.res_site) o.Sim_system.resources in
  Alcotest.(check (list string))
    "primary first, then secondaries in order"
    [ "primary"; "secondary-0"; "secondary-1" ]
    sites;
  List.iter
    (fun (r : Sim_system.resource_report) ->
      check_bool "utilization in [0,1]" true
        (0. < r.Sim_system.res_utilization && r.Sim_system.res_utilization <= 1.);
      check_bool "completions within arrivals" true
        (r.Sim_system.res_completions <= r.Sim_system.res_arrivals);
      check_bool "throughput positive" true (r.Sim_system.res_throughput > 0.);
      check_bool "littles gap small over a long run" true
        (r.Sim_system.res_littles_gap < 0.1))
    o.Sim_system.resources

let test_bottleneck_report () =
  let o = run Session.Strong_session in
  let report = Bottleneck.analyze tiny_params o in
  check_int "one rank per resource" 3 (List.length report.Bottleneck.ranking);
  let utils =
    List.map (fun r -> r.Bottleneck.bn_utilization) report.Bottleneck.ranking
  in
  check_bool "ranking sorted by utilization" true
    (List.sort (fun a b -> compare b a) utils = utils);
  Alcotest.(check string)
    "dominant is the head of the ranking"
    (match report.Bottleneck.ranking with
    | r :: _ -> r.Bottleneck.bn_site
    | [] -> "none")
    report.Bottleneck.dominant;
  let share_sum =
    List.fold_left
      (fun acc r -> acc +. r.Bottleneck.bn_wait_share)
      0. report.Bottleneck.ranking
  in
  Alcotest.(check (float 1e-9)) "wait shares sum to 1" 1. share_sum;
  Alcotest.(check (list string))
    "read and update classes"
    [ "read"; "update" ]
    (List.map (fun b -> b.Bottleneck.br_class) report.Bottleneck.breakdowns);
  List.iter
    (fun (b : Bottleneck.breakdown) ->
      List.iter
        (fun (c : Bottleneck.component) ->
          check_bool "component nonnegative" true (c.Bottleneck.comp_seconds >= 0.))
        b.Bottleneck.br_components;
      let total =
        List.fold_left
          (fun acc c -> acc +. c.Bottleneck.comp_seconds)
          0. b.Bottleneck.br_components
      in
      (* The queueing remainder is clamped at zero, so the components cover
         at least the measured response time. *)
      check_bool "components cover the response time" true
        (total >= b.Bottleneck.br_rt_mean -. 1e-9))
    report.Bottleneck.breakdowns;
  let rendered = Bottleneck.render ~tag:"t" report in
  check_bool "render names the dominant resource" true
    (let sub = "bottleneck [t]: " ^ report.Bottleneck.dominant in
     String.length rendered >= String.length sub
     && String.sub rendered 0 (String.length sub) = sub);
  (* The JSON export round-trips through the parser, like every exporter. *)
  let text = Lsr_obs.Json.to_string (Bottleneck.to_json report) in
  check_bool "bottleneck JSON round-trips" true
    (Result.map Lsr_obs.Json.to_string (Lsr_obs.Json.parse text) = Ok text)

let tiny_sweep_params =
  {
    Params.default with
    Params.clients_per_secondary = 4;
    warmup = 10.;
    duration = 60.;
    replications = 2;
    propagation_delay = 3.;
  }

let tiny_opts =
  { Figures.default_opts with Figures.quick = true; base_params = Some tiny_sweep_params }

let series_by_label (figure : Figures.figure) label =
  List.find (fun s -> s.Figures.label = label) figure.Figures.series

(* Runs [ids] under [tiny_opts], returning the figures and the number of
   progress lines (one per simulation run). *)
let run_tiny ids =
  let runs = ref 0 in
  let figures =
    Figures.run { tiny_opts with Figures.progress = (fun _ -> incr runs) } ids
  in
  (figures, !runs)

let test_figures_tiny_fig234 () =
  let f2, f3, f4 =
    match fst (run_tiny [ "fig2"; "fig3"; "fig4" ]) with
    | [ f2; f3; f4 ] -> (f2, f3, f4)
    | _ -> Alcotest.fail "expected three figures"
  in
  Alcotest.(check string) "fig2 id" "fig2" f2.Figures.id;
  List.iter
    (fun (figure : Figures.figure) ->
      check_int "three series" 3 (List.length figure.Figures.series);
      List.iter
        (fun s -> check_int "five points" 5 (List.length s.Figures.points))
        figure.Figures.series)
    [ f2; f3; f4 ];
  (* Strong SI must show the signature pattern even at tiny scale: higher
     read latency than weak SI at the largest load point. *)
  let last series =
    (List.nth series.Figures.points 4).Figures.interval.Lsr_stats.Confidence.mean
  in
  check_bool "strong read RT dominates weak" true
    (last (series_by_label f3 "ALG-STRONG-SI")
    > last (series_by_label f3 "ALG-WEAK-SI"))

let test_figures_tiny_fig_fence () =
  (* The fence sweep must expose the staleness/latency tradeoff: tightening
     the Max_age bound never lowers read latency, and the tightest setting
     is strictly slower than unfenced (reads block on the threshold queue
     until the horizon is applied). *)
  let fig = List.hd (fst (run_tiny [ "fig-fence" ])) in
  Alcotest.(check string) "id" "fig-fence" fig.Figures.id;
  check_int "three series" 3 (List.length fig.Figures.series);
  List.iter
    (fun s ->
      check_bool "at least four fence settings + baseline" true
        (List.length s.Figures.points >= 5))
    fig.Figures.series;
  (* Points run loosest (unfenced baseline) to tightest. *)
  let means label =
    List.map
      (fun (p : Figures.point) -> p.Figures.interval.Lsr_stats.Confidence.mean)
      (series_by_label fig label).Figures.points
  in
  let p95s = means "read rt p95" in
  let loosest = List.hd p95s and tightest = List.nth p95s (List.length p95s - 1) in
  check_bool "tightest fence strictly slower than unfenced" true
    (tightest > loosest);
  let ages = means "snapshot age p95" in
  check_bool "tightest fence observes no staler snapshots than unfenced" true
    (List.nth ages (List.length ages - 1) <= List.hd ages)

let test_figures_tiny_fig5_ideal_line () =
  let f5 = List.hd (fst (run_tiny [ "fig5" ])) in
  check_int "ideal + three algorithms" 4 (List.length f5.Figures.series);
  let ideal = series_by_label f5 "ideal (linear)" in
  let points = ideal.Figures.points in
  let ratio (p : Figures.point) =
    p.Figures.interval.Lsr_stats.Confidence.mean /. p.Figures.x
  in
  (* The slope is the strong-session-SI throughput of the 1-secondary
     system. *)
  let reference =
    List.hd (series_by_label f5 "ALG-STRONG-SESSION-SI").Figures.points
  in
  Alcotest.(check (float 0.)) "reference point is x = 1" 1. reference.Figures.x;
  let r0 = ratio reference in
  List.iter
    (fun p -> Alcotest.(check (float 1e-6)) "ideal line is linear" r0 (ratio p))
    points

let check_same_figures msg solo together =
  check_bool msg true (compare solo together = 0)

let test_figures_shared_tag () =
  (* fig5 and fig8 both tag "<alg> secondaries=5", over different
     workloads: both points must run, and each figure must equal its solo
     run. *)
  let fig5, runs5 = run_tiny [ "fig5" ] and fig8, runs8 = run_tiny [ "fig8" ] in
  check_int "fig5 runs" 24 runs5;
  check_int "fig8 runs" 24 runs8;
  let both, runs = run_tiny [ "fig5"; "fig8" ] in
  check_int "fig5 + fig8 runs" 48 runs;
  check_same_figures "fig5 + fig8 = fig5, fig8" (fig5 @ fig8) both

let test_figures_shared_runs () =
  (* fig-staleness and fig-utilization reuse fig2's cells: requested
     together they run fig2's 30 jobs once and still match their solo
     figures. *)
  let ids = [ "fig2"; "fig-staleness"; "fig-utilization" ] in
  let together, runs = run_tiny ids in
  check_int "shared runs" 30 runs;
  let alone = List.concat_map (fun id -> fst (run_tiny [ id ])) ids in
  check_same_figures "together = each alone" alone together

let test_figures_contention_base () =
  (* ablate-contention honours [base_params] like every other figure: 4
     skews x 2 replications. *)
  check_int "ablate-contention runs" 8 (snd (run_tiny [ "ablate-contention" ]))

let test_params_for () =
  check_bool "quick shrinks" true
    ((Figures.params_for ~quick:true).Params.duration
    < (Figures.params_for ~quick:false).Params.duration);
  Alcotest.(check int) "paper-scale replications" 5
    (Figures.params_for ~quick:false).Params.replications

let () =
  Alcotest.run "lsr_experiments"
    [
      ( "metrics",
        [
          Alcotest.test_case "warmup filtering" `Quick test_metrics_warmup_filtering;
          Alcotest.test_case "counters" `Quick test_metrics_counters;
        ] );
      ( "sim_system",
        [
          Alcotest.test_case "produces work" `Quick test_sim_produces_work;
          Alcotest.test_case "all guarantees validate" `Slow
            test_sim_all_guarantees_validate;
          Alcotest.test_case "weak never blocks" `Quick test_sim_weak_never_blocks;
          Alcotest.test_case "blocking ordering" `Quick test_sim_blocking_ordering;
          Alcotest.test_case "strong read rt dominates" `Quick
            test_sim_strong_read_rt_dominates;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "bench shapes outcome pinned" `Quick
            test_sim_outcome_pinned;
          Alcotest.test_case "closed set-up fires no event per client" `Quick
            test_sim_closed_setup_fires_nothing;
          Alcotest.test_case "rejects a non-positive propagation delay" `Quick
            test_sim_rejects_propagation_delay;
          Alcotest.test_case "serial refresh staler" `Slow
            test_sim_serial_refresh_staler;
          Alcotest.test_case "refresh pipeline order" `Quick
            test_sim_refresh_pipeline;
          Alcotest.test_case "ship_aborted wastes work" `Quick
            test_sim_ship_aborted_wastes_work;
          Alcotest.test_case "ship_aborted still correct" `Slow
            test_sim_ship_aborted_still_correct;
          Alcotest.test_case "utilization bounds" `Quick test_sim_utilization_bounds;
          Alcotest.test_case "staleness reflects delay" `Quick
            test_sim_staleness_reflects_delay;
          Alcotest.test_case "config defaults" `Quick test_sim_config_defaults;
          Alcotest.test_case "pcsi validates" `Slow test_sim_pcsi_validates;
          Alcotest.test_case "migration validates" `Slow
            test_sim_migration_validates;
          Alcotest.test_case "migration: pcsi waits less" `Quick
            test_sim_migration_pcsi_waits_less;
          Alcotest.test_case "contention: fcw aborts + correct" `Slow
            test_sim_contention_fcw_aborts;
          Alcotest.test_case "one job per update attempt" `Quick
            test_sim_one_job_per_attempt;
          Alcotest.test_case "uniform: no fcw" `Quick test_sim_uniform_has_no_fcw;
        ] );
      ( "observability",
        [
          Alcotest.test_case "does not perturb the run" `Quick
            test_sim_obs_does_not_perturb;
          Alcotest.test_case "counters track outcome" `Quick
            test_sim_obs_counters_track_outcome;
          Alcotest.test_case "exports byte-deterministic" `Quick
            test_sim_obs_exports_deterministic;
          Alcotest.test_case "lineage does not perturb" `Quick
            test_sim_recorder_does_not_perturb;
          Alcotest.test_case "lineage exports byte-deterministic" `Quick
            test_sim_recorder_exports_deterministic;
          Alcotest.test_case "lineage sink spans runs" `Quick
            test_sim_recorder_sink_spans_runs;
          Alcotest.test_case "report never splices runs" `Quick
            test_report_never_splices_runs;
          Alcotest.test_case "report channels" `Quick test_report_channels;
          Alcotest.test_case "lag report rows" `Quick test_lag_report_rows;
          Alcotest.test_case "lag report empty site" `Quick
            test_lag_report_empty_site;
          Alcotest.test_case "freshness in outcome" `Quick
            test_sim_freshness_outcome;
          Alcotest.test_case "monitor does not perturb" `Quick
            test_sim_monitor_does_not_perturb;
          Alcotest.test_case "monitor timeseries byte-deterministic" `Quick
            test_sim_monitor_timeseries_deterministic;
          Alcotest.test_case "versions stay bounded" `Quick
            test_sim_versions_bounded;
          Alcotest.test_case "monitor create validates" `Quick
            test_monitor_create_validates;
          Alcotest.test_case "outcome resource reports" `Quick
            test_outcome_resources;
          Alcotest.test_case "bottleneck report" `Quick test_bottleneck_report;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "write csv" `Quick test_report_write_csv;
          Alcotest.test_case "non-finite clamped" `Quick
            test_report_nonfinite_clamped;
          Alcotest.test_case "params_for" `Quick test_params_for;
          Alcotest.test_case "tiny fig2/3/4 sweep" `Slow test_figures_tiny_fig234;
          Alcotest.test_case "fig5 ideal line" `Slow test_figures_tiny_fig5_ideal_line;
          Alcotest.test_case "fig-fence tradeoff" `Slow
            test_figures_tiny_fig_fence;
          Alcotest.test_case "fig5 + fig8 shared tag" `Slow
            test_figures_shared_tag;
          Alcotest.test_case "fig2 runs shared" `Slow test_figures_shared_runs;
          Alcotest.test_case "ablate-contention base" `Slow
            test_figures_contention_base;
        ] );
    ]
