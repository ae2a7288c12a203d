(* The open-loop aggregated client model (PR 6): statistical equivalence
   against the paper's closed-loop model at matched offered load, arrival-
   process sanity, bitwise determinism, a hundred-thousand-client run with
   the full checker battery, the Session_seq fence / strong-session-SI
   equivalence, and the online watchdog's bounded-memory scale contract. *)

open Lsr_core
open Lsr_experiments
module Params = Lsr_workload.Params
module Confidence = Lsr_stats.Confidence
module Json = Lsr_obs.Json

let check_bool = Alcotest.(check bool)

(* Small MPL so the closed-loop system is far from saturation: there the
   closed-loop offered load equals the open-loop arrival rate and the two
   models must agree on every steady-state statistic. *)
let eq_params =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = 10;
    warmup = 30.;
    duration = 230.;
  }

let eq_config guarantee ~seed mode =
  {
    (Sim_system.config eq_params guarantee ~seed) with
    Sim_system.record_history = true;
    client_mode = mode;
  }

let open_mode =
  Sim_system.Open_loop
    { clients = 10; arrival = Sim_system.Poisson; session_pool = 0 }

let replicate guarantee mode =
  List.init 5 (fun i -> Sim_system.run (eq_config guarantee ~seed:(100 + i) mode))

(* Two means are equivalent when their 95% Student-t intervals overlap,
   with a small relative floor so zero-width intervals (e.g. an abort rate
   of exactly 0 in every replication) don't demand bitwise equality. *)
let compatible name a b =
  let ia = Confidence.of_samples a and ib = Confidence.of_samples b in
  let gap = Float.abs (ia.Confidence.mean -. ib.Confidence.mean) in
  let slack =
    ia.Confidence.half_width +. ib.Confidence.half_width
    +. (0.1 *. Float.max (Float.abs ia.Confidence.mean) (Float.abs ib.Confidence.mean))
    +. 1e-6
  in
  check_bool
    (Printf.sprintf "%s: |%.4f - %.4f| <= %.4f" name ia.Confidence.mean
       ib.Confidence.mean slack)
    true (gap <= slack)

let guarantees =
  [
    ("weak", Session.Weak);
    ("pcsi", Session.Prefix_consistent);
    ("strong-session", Session.Strong_session);
    ("strong", Session.Strong);
  ]

let test_equivalence () =
  List.iter
    (fun (gname, g) ->
      let closed = replicate g Sim_system.Closed_loop in
      let opened = replicate g open_mode in
      List.iter
        (fun (o : Sim_system.outcome) ->
          Alcotest.(check (list string))
            (gname ^ ": closed-loop run satisfies its guarantee")
            [] o.Sim_system.check_errors)
        closed;
      List.iter
        (fun (o : Sim_system.outcome) ->
          Alcotest.(check (list string))
            (gname ^ ": open-loop run satisfies its guarantee")
            [] o.Sim_system.check_errors)
        opened;
      let metric f l = List.map f l in
      compatible
        (gname ^ ": throughput")
        (metric (fun o -> o.Sim_system.throughput_fast) closed)
        (metric (fun o -> o.Sim_system.throughput_fast) opened);
      compatible
        (gname ^ ": abort rate")
        (metric
           (fun (o : Sim_system.outcome) ->
             float_of_int o.Sim_system.aborts
             /. float_of_int (max 1 o.Sim_system.updates_completed))
           closed)
        (metric
           (fun (o : Sim_system.outcome) ->
             float_of_int o.Sim_system.aborts
             /. float_of_int (max 1 o.Sim_system.updates_completed))
           opened);
      compatible
        (gname ^ ": read age")
        (metric (fun o -> o.Sim_system.read_age_mean) closed)
        (metric (fun o -> o.Sim_system.read_age_mean) opened))
    guarantees

let scrub (o : Sim_system.outcome) =
  (* checker_cpu_s is wall CPU — the only nondeterministic outcome field.
     check_report is dropped too: the fence-vs-guarantee equivalence below
     compares a fenced-Weak run against an unfenced Strong_session run, and
     the two histories legitimately differ in recorded fence claims even
     though every simulation trajectory field is identical. *)
  { o with Sim_system.checker_cpu_s = 0.; check_report = None }

let test_fence_session_equivalence () =
  (* A Session_seq fence on every read under ALG-WEAK-SI must reduce exactly
     to ALG-STRONG-SESSION-SI: the fence policy draws nothing from the
     workload rng, so per seed the two configurations replay the same random
     stream, every read blocks on the same threshold, and the checker
     returns identical verdicts. Closed-loop trajectories are bitwise
     identical; the open-loop comparison is statistical (a rotating session
     label can gain commits while a read waits, and the fence resolves its
     threshold once at submission). *)
  let fenced_cfg ~seed mode =
    {
      (eq_config Session.Weak ~seed mode) with
      Sim_system.fence = Sim_system.All_reads Session.Session_seq;
    }
  in
  List.iter
    (fun seed ->
      let plain =
        Sim_system.run
          (eq_config Session.Strong_session ~seed Sim_system.Closed_loop)
      in
      let fenced = Sim_system.run (fenced_cfg ~seed Sim_system.Closed_loop) in
      Alcotest.(check (list string))
        "checker verdicts identical" plain.Sim_system.check_errors
        fenced.Sim_system.check_errors;
      check_bool "every read carried the fence" true
        (fenced.Sim_system.fenced_reads >= fenced.Sim_system.reads_completed);
      check_bool "the fenced run earned its verdict (reads blocked)" true
        (fenced.Sim_system.blocked_reads = plain.Sim_system.blocked_reads);
      let norm o = scrub { o with Sim_system.fenced_reads = 0 } in
      check_bool "closed-loop trajectories bitwise identical" true
        (norm plain = norm fenced))
    [ 100; 101; 102 ];
  let plain = replicate Session.Strong_session open_mode in
  let fenced =
    List.init 5 (fun i -> Sim_system.run (fenced_cfg ~seed:(100 + i) open_mode))
  in
  List.iter
    (fun (o : Sim_system.outcome) ->
      Alcotest.(check (list string))
        "open-loop fenced run passes the checker (incl. fence audit)" []
        o.Sim_system.check_errors)
    fenced;
  let metric f l = List.map f l in
  compatible "fence≡session: throughput"
    (metric (fun o -> o.Sim_system.throughput_fast) plain)
    (metric (fun o -> o.Sim_system.throughput_fast) fenced);
  compatible "fence≡session: read rt"
    (metric (fun o -> o.Sim_system.read_rt_mean) plain)
    (metric (fun o -> o.Sim_system.read_rt_mean) fenced);
  compatible "fence≡session: blocked reads"
    (metric (fun o -> float_of_int o.Sim_system.blocked_reads) plain)
    (metric (fun o -> float_of_int o.Sim_system.blocked_reads) fenced)

let test_mmpp_sanity () =
  (* The MMPP keeps the long-run mean rate: a bursty run completes a
     transaction count comparable to the Poisson run's, and the burstiness
     must not break any guarantee. *)
  let run mode = Sim_system.run (eq_config Session.Strong_session ~seed:7 mode) in
  let poisson = run open_mode in
  let bursty =
    run
      (Sim_system.Open_loop
         { clients = 10; arrival = Sim_system.Mmpp 4.0; session_pool = 0 })
  in
  let txns (o : Sim_system.outcome) =
    o.Sim_system.reads_completed + o.Sim_system.updates_completed
  in
  check_bool "bursty run completed work" true (txns bursty > 0);
  Alcotest.(check (list string))
    "bursty run satisfies its guarantee" [] bursty.Sim_system.check_errors;
  let ratio = float_of_int (txns bursty) /. float_of_int (txns poisson) in
  check_bool
    (Printf.sprintf "mean rate preserved (ratio %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 1.4)

let test_determinism () =
  let run seed = Sim_system.run (eq_config Session.Strong_session ~seed open_mode) in
  check_bool "same seed, identical outcome" true (scrub (run 5) = scrub (run 5));
  check_bool "different seed, different outcome" true
    (scrub (run 5) <> scrub (run 6))

(* The runtest-sized version of the watchdog showcase: 100k modeled
   clients, history recording OFF, the online watchdog alone verifying the
   guarantee — in state bounded by the active visibility window, not the
   run length. *)
let test_watchdog_bounded_at_scale () =
  let params =
    {
      Params.default with
      Params.num_secondaries = 2;
      clients_per_secondary = 50_000;
      op_service_time = 1e-6;
      propagation_delay = 0.5;
      tran_size_min = 2;
      tran_size_max = 6;
      warmup = 0.5;
      (* Long enough that the transaction count dwarfs the active visibility
         window (~0.7 virtual s of in-flight work at this offered rate): the
         peak-state bound below is peak/txns ≈ window/duration, so a short
         run would fail it even with retirement working perfectly. *)
      duration = 6.0;
    }
  in
  let cfg =
    {
      (Sim_system.config params Session.Strong_session ~seed:42) with
      Sim_system.watchdog = true;
      client_mode =
        Sim_system.Open_loop
          { clients = 50_000; arrival = Sim_system.Poisson; session_pool = 0 };
    }
  in
  let o = Sim_system.run cfg in
  Alcotest.(check (list string))
    "watchdog verdict clean at 100k modeled clients (no history recorded)" []
    o.Sim_system.check_errors;
  check_bool "no history was recorded" true (o.Sim_system.check_report = None);
  let txns = o.Sim_system.reads_completed + o.Sim_system.updates_completed in
  check_bool
    (Printf.sprintf "offered load is actually reached (%d txns)" txns)
    true (txns > 10_000);
  check_bool
    (Printf.sprintf "peak watchdog state %d bounded well below %d txns"
       o.Sim_system.watchdog_peak_state txns)
    true
    (o.Sim_system.watchdog_peak_state > 0
    && o.Sim_system.watchdog_peak_state * 4 < txns);
  (* Retirement actually ran: the horizon advanced and versions were folded
     into the base map, rather than every chain growing for the whole run. *)
  match o.Sim_system.watchdog_report with
  | None -> Alcotest.fail "watchdog run must produce a report"
  | Some report -> (
    match (Json.member "retired_versions" report, Json.member "horizon" report)
    with
    | Some (Json.Num retired), Some (Json.Num horizon) ->
      check_bool "versions were retired continuously" true (retired > 0.);
      check_bool "the retirement horizon advanced" true (horizon > 0.)
    | _ -> Alcotest.fail "watchdog report missing retirement fields")

let test_hundred_thousand_clients () =
  (* A runtest-sized showcase: 100k modeled clients across two sites,
     history recording on, full checker battery at the end. lsrbench's
     verified-session workload (bench/suite) gates the 10^6 point. *)
  let params =
    {
      Params.default with
      Params.num_secondaries = 2;
      clients_per_secondary = 50_000;
      op_service_time = 1e-6;
      propagation_delay = 0.5;
      tran_size_min = 2;
      tran_size_max = 6;
      warmup = 0.5;
      duration = 2.0;
    }
  in
  let o =
    Sim_system.run
      {
        (Sim_system.config params Session.Strong_session ~seed:42) with
        Sim_system.record_history = true;
        client_mode =
          Sim_system.Open_loop
            { clients = 50_000; arrival = Sim_system.Poisson; session_pool = 0 };
      }
  in
  Alcotest.(check (list string))
    "checker battery passes at 100k modeled clients" []
    o.Sim_system.check_errors;
  let txns = o.Sim_system.reads_completed + o.Sim_system.updates_completed in
  check_bool
    (Printf.sprintf "offered load is actually reached (%d txns)" txns)
    true (txns > 10_000);
  check_bool "checker really ran" true (o.Sim_system.checker_cpu_s >= 0.)

let () =
  Alcotest.run "lsr_scale"
    [
      ( "equivalence",
        [
          Alcotest.test_case "open vs closed loop, all guarantees" `Slow
            test_equivalence;
          Alcotest.test_case "session fence ≡ strong-session SI" `Slow
            test_fence_session_equivalence;
          Alcotest.test_case "mmpp sanity" `Quick test_mmpp_sanity;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "scale",
        [
          Alcotest.test_case "100k modeled clients + checker" `Slow
            test_hundred_thousand_clients;
          Alcotest.test_case "100k modeled clients, watchdog only" `Slow
            test_watchdog_bounded_at_scale;
        ] );
    ]
