open Lsr_core
open Lsr_workload
open Lsr_stats

type point = {
  x : float;
  interval : Confidence.interval;
}

type series = {
  label : string;
  points : point list;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;
}

type run_opts = {
  quick : bool;
  seed : int;
  progress : string -> unit;
  base_params : Params.t option;
  report : Run_report.t;
}

let default_opts =
  {
    quick = false;
    seed = 20060912;
    progress = ignore;
    base_params = None;
    report = Run_report.null;
  }

let algorithms = [ Session.Strong_session; Session.Weak; Session.Strong ]

let params_for ~quick =
  if quick then Params.quick Params.default else Params.default

let base_of opts =
  match opts.base_params with
  | Some params -> params
  | None -> params_for ~quick:opts.quick

(* Replications of one configuration, reduced per metric. *)
let replicate opts ~tag (cfg : Sim_system.config) =
  let reps = cfg.Sim_system.params.Params.replications in
  List.init reps (fun i ->
      let seeded =
        { cfg with Sim_system.seed = opts.seed + (1000 * i) + Hashtbl.hash tag }
      in
      let outcome =
        Run_report.run opts.report
          ~tag:(Printf.sprintf "%s rep %d" tag (i + 1))
          seeded
      in
      opts.progress
        (Printf.sprintf "%s rep %d/%d: %.2f tps" tag (i + 1) reps
           outcome.Sim_system.throughput_fast);
      outcome)

let interval_of metric outcomes = Confidence.of_samples (List.map metric outcomes)

(* Shared sweep: for each x, for each algorithm, a replicated run; returns
   per-metric figures assembled from the same outcomes. *)
let sweep opts ~xs ~make_params ~xlabel ~figures =
  let results =
    List.map
      (fun x ->
        let params = make_params x in
        let per_alg =
          List.map
            (fun alg ->
              let tag =
                Printf.sprintf "%s %s=%g" (Session.guarantee_name alg) xlabel x
              in
              let cfg = Sim_system.config params alg ~seed:opts.seed in
              (alg, replicate opts ~tag cfg))
            algorithms
        in
        (x, per_alg))
      xs
  in
  List.map
    (fun (id, title, ylabel, metric, notes) ->
      let series =
        List.map
          (fun alg ->
            {
              label = Session.guarantee_name alg;
              points =
                List.map
                  (fun (x, per_alg) ->
                    let outcomes = List.assoc alg per_alg in
                    { x; interval = interval_of metric outcomes })
                  results;
            })
          algorithms
      in
      { id; title; xlabel; ylabel; series; notes })
    figures

let throughput (o : Sim_system.outcome) = o.Sim_system.throughput_fast
let read_rt (o : Sim_system.outcome) = o.Sim_system.read_rt_mean
let update_rt (o : Sim_system.outcome) = o.Sim_system.update_rt_mean

let three_metrics ~id_prefix ~context =
  [
    ( "fig" ^ List.nth id_prefix 0,
      "Transaction Throughput (finishing within 3s), " ^ context,
      "throughput (tps)",
      throughput,
      [] );
    ( "fig" ^ List.nth id_prefix 1,
      "Read-Only Transaction Response Time, " ^ context,
      "response time (s)",
      read_rt,
      [] );
    ( "fig" ^ List.nth id_prefix 2,
      "Update Transaction Response Time, " ^ context,
      "response time (s)",
      update_rt,
      [] );
  ]

let fig2_3_4 opts =
  let base = base_of opts in
  let xs =
    if opts.quick then [ 50.; 100.; 150.; 200.; 250. ]
    else [ 25.; 50.; 75.; 100.; 125.; 150.; 175.; 200.; 225.; 250. ]
  in
  let make_params clients =
    {
      base with
      Params.num_secondaries = 5;
      clients_per_secondary =
        int_of_float clients / 5 (* 5 secondaries; x = total clients *);
    }
  in
  match
    sweep opts ~xs ~make_params ~xlabel:"clients"
      ~figures:(three_metrics ~id_prefix:[ "2"; "3"; "4" ] ~context:"80/20 workload")
  with
  | [ a; b; c ] -> (a, b, c)
  | _ -> assert false

(* Ideal linear scaling reference for the scale-up figures: the weak-SI
   throughput of the 1-secondary system extrapolated linearly, the "y=x"
   line of Figures 5 and 8. *)
let ideal_series ~xs ~per_site =
  {
    label = "ideal (linear)";
    points =
      List.map
        (fun x ->
          { x; interval = { Confidence.mean = x *. per_site; half_width = 0.; n = 1 } })
        xs;
  }

let scale_sweep opts ~xs ~mix_name ~browsing ~ids =
  let base = base_of opts in
  let base = if browsing then Params.browsing base else base in
  let make_params sites =
    { base with Params.num_secondaries = int_of_float sites }
  in
  let context = Printf.sprintf "20 clients/secondary, %s workload" mix_name in
  let figures =
    sweep opts ~xs ~make_params ~xlabel:"secondaries"
      ~figures:(three_metrics ~id_prefix:ids ~context)
  in
  (* Attach the linear reference to the throughput figure. *)
  match figures with
  | [ tput; rrt; urt ] ->
    let per_site =
      match tput.series with
      | { points = { x; interval; _ } :: _; _ } :: _ -> interval.Confidence.mean /. x
      | _ -> 0.
    in
    ( { tput with series = ideal_series ~xs ~per_site :: tput.series },
      rrt,
      urt )
  | _ -> assert false

let fig5_6_7 opts =
  let xs =
    if opts.quick then [ 1.; 5.; 9.; 13. ]
    else [ 1.; 3.; 5.; 7.; 9.; 11.; 13.; 15. ]
  in
  scale_sweep opts ~xs ~mix_name:"80/20" ~browsing:false ~ids:[ "5"; "6"; "7" ]

let fig8 opts =
  let xs =
    if opts.quick then [ 5.; 20.; 35.; 50. ]
    else [ 5.; 15.; 25.; 35.; 45.; 55. ]
  in
  let tput, _, _ =
    scale_sweep opts ~xs ~mix_name:"95/5" ~browsing:true ~ids:[ "8"; "8b"; "8c" ]
  in
  { tput with id = "fig8" }

(* Extension figure (not in the paper): how stale the snapshots that
   read-only transactions actually observe become as offered load grows —
   the freshness observer's headline plot. *)
let fig_staleness opts =
  let base = base_of opts in
  let xs =
    if opts.quick then [ 50.; 150.; 250. ]
    else [ 25.; 50.; 100.; 150.; 200.; 250. ]
  in
  let make_params clients =
    {
      base with
      Params.num_secondaries = 5;
      clients_per_secondary = int_of_float clients / 5;
    }
  in
  match
    sweep opts ~xs ~make_params ~xlabel:"clients"
      ~figures:
        [
          ( "fig-staleness",
            "Read Snapshot Staleness (p95 age) vs Load, 80/20 workload",
            "p95 snapshot age (s)",
            (fun (o : Sim_system.outcome) -> o.Sim_system.read_age_p95),
            [
              "Snapshot age = virtual-time age of the newest primary commit \
               a read-only transaction's snapshot reflects (0 when its \
               secondary was fully caught up); the freshness definition of \
               docs/TRACING.md.";
            ] );
        ]
  with
  | [ fig ] -> fig
  | _ -> assert false

(* Extension figure (not in the paper): where the capacity goes. Per-site
   utilization (primary vs mean secondary) against offered load, one pair of
   series per guarantee — the saturation knee of Figures 2-4 made visible.
   Reuses one sweep of runs for both resources. *)
let fig_utilization opts =
  let base = base_of opts in
  let xs =
    if opts.quick then [ 50.; 100.; 150.; 200.; 250. ]
    else [ 25.; 50.; 75.; 100.; 125.; 150.; 175.; 200.; 225.; 250. ]
  in
  let results =
    List.map
      (fun clients ->
        let params =
          {
            base with
            Params.num_secondaries = 5;
            clients_per_secondary = int_of_float clients / 5;
          }
        in
        let per_alg =
          List.map
            (fun alg ->
              let tag =
                Printf.sprintf "%s clients=%g" (Session.guarantee_name alg)
                  clients
              in
              let cfg = Sim_system.config params alg ~seed:opts.seed in
              (alg, replicate opts ~tag cfg))
            algorithms
        in
        (clients, per_alg))
      xs
  in
  let series_of alg ~suffix ~metric =
    {
      label = Session.guarantee_name alg ^ " " ^ suffix;
      points =
        List.map
          (fun (x, per_alg) ->
            let outcomes = List.assoc alg per_alg in
            { x; interval = interval_of metric outcomes })
          results;
    }
  in
  let series =
    List.concat_map
      (fun alg ->
        [
          series_of alg ~suffix:"primary" ~metric:(fun (o : Sim_system.outcome) ->
              o.Sim_system.primary_utilization *. 100.);
          series_of alg ~suffix:"secondary"
            ~metric:(fun (o : Sim_system.outcome) ->
              o.Sim_system.secondary_utilization *. 100.);
        ])
      algorithms
  in
  {
    id = "fig-utilization";
    title = "Per-Site Utilization vs Multiprogramming Level, 80/20 workload";
    xlabel = "clients";
    ylabel = "utilization (%)";
    series;
    notes =
      [
        "Utilization is exact at the sampling instant (busy time pro-rated \
         for jobs still in service); \"secondary\" is the mean over the 5 \
         secondary sites. The bottleneck report names the resource that \
         saturates first at the throughput knee.";
      ];
  }

(* Extension figure (not in the paper): the staleness/latency tradeoff that
   bounded-staleness fences buy. Every read carries a [Max_age d] fence and
   the sweep tightens d from "looser than the replication lag" down to
   near-zero; an unfenced baseline anchors the left edge. Under ALG-WEAK-SI
   the fence is the only thing that ever blocks a read, so the figure
   isolates its cost: read latency (p50/p95) climbs and observed snapshot
   age (p95) falls as the fence tightens. *)
let fence_tightness_sweep ~quick =
  (* x = the fence bound d in virtual seconds; infinity = unfenced. *)
  if quick then [ infinity; 30.; 10.; 3.; 1. ]
  else [ infinity; 60.; 30.; 10.; 3.; 1.; 0.3 ]

let fig_fence opts =
  let base = base_of opts in
  let params =
    { base with Params.num_secondaries = 5; clients_per_secondary = 20 }
  in
  let xs = fence_tightness_sweep ~quick:opts.quick in
  let results =
    List.map
      (fun d ->
        let fence =
          if Float.is_finite d then Sim_system.All_reads (Session.Max_age d)
          else Sim_system.No_fence
        in
        let tag =
          if Float.is_finite d then Printf.sprintf "fence age=%g" d
          else "unfenced"
        in
        let cfg =
          {
            (Sim_system.config params Session.Weak ~seed:opts.seed) with
            Sim_system.fence;
          }
        in
        (d, replicate opts ~tag cfg))
      xs
  in
  (* Plot the unfenced baseline at one decade looser than the loosest real
     bound, so the log-ish x axis stays finite. *)
  let x_of d =
    if Float.is_finite d then d
    else 10. *. List.fold_left (fun acc x -> if Float.is_finite x then Float.max acc x else acc) 1. xs
  in
  let series_of ~label ~metric =
    {
      label;
      points =
        List.map
          (fun (d, outcomes) ->
            { x = x_of d; interval = interval_of metric outcomes })
          results;
    }
  in
  {
    id = "fig-fence";
    title =
      "Bounded-Staleness Fences: Read Latency vs Observed Snapshot Age, \
       ALG-WEAK-SI, 80/20 workload";
    xlabel = "fence bound d (s; rightmost point = unfenced)";
    ylabel = "seconds";
    series =
      [
        series_of ~label:"read rt p50" ~metric:(fun (o : Sim_system.outcome) ->
            o.Sim_system.read_rt_p50);
        series_of ~label:"read rt p95" ~metric:(fun (o : Sim_system.outcome) ->
            o.Sim_system.read_rt_p95);
        series_of ~label:"snapshot age p95"
          ~metric:(fun (o : Sim_system.outcome) -> o.Sim_system.read_age_p95);
      ];
    notes =
      [
        "Every read carries a Max_age d fence: its snapshot must include \
         every primary commit older than d virtual seconds at submission \
         (the commit-clock visibility horizon). Tightening d trades read \
         latency for freshness; the unfenced run anchors the loose end. \
         Guarantee is ALG-WEAK-SI, so fences are the only source of read \
         blocking.";
      ];
  }

(* Extension figure (not in the paper): what the static planner's mixed
   assignment is worth at run time. The {!Lsr_analysis.Plan} for the
   [fence_mix] workload fences exactly the inversion-prone fraction of the
   read traffic; this sweep prices three deployments of the same load —
   the uniform weakest-safe guarantee (every read Session_seq-fenced), the
   planner's mix (only the planned fraction fenced) and the unsafe Weak
   baseline — as mean read response time vs load. *)
let fig_plan opts =
  let plan =
    Lsr_analysis.Plan.infer ~workload:"fence_mix"
      (Lsr_analysis.Builtin.fence_mix ())
  in
  let readers =
    List.filter
      (fun (a : Lsr_analysis.Plan.assignment) -> a.Lsr_analysis.Plan.read_only)
      plan.Lsr_analysis.Plan.assignments
  in
  let fenced =
    List.filter
      (fun (a : Lsr_analysis.Plan.assignment) ->
        a.Lsr_analysis.Plan.fence <> None)
      readers
  in
  (* The planned fraction of fenced read traffic, assuming the template mix
     spreads reads evenly over the read-only templates. *)
  let phi =
    float_of_int (List.length fenced)
    /. float_of_int (max 1 (List.length readers))
  in
  let base = base_of opts in
  let xs =
    if opts.quick then [ 10.; 30. ] else [ 5.; 10.; 20.; 40.; 60. ]
  in
  let policies =
    [
      ("uniform strong-session fences", Sim_system.All_reads Session.Session_seq);
      ( Printf.sprintf "planned mix (%.0f%% fenced)" (100. *. phi),
        Sim_system.Fence_mix
          [ (phi, Some Session.Session_seq); (1. -. phi, None) ] );
      ("weak (no fences, inversions possible)", Sim_system.No_fence);
    ]
  in
  let series =
    List.map
      (fun (label, fence) ->
        {
          label;
          points =
            List.map
              (fun x ->
                let params =
                  {
                    base with
                    Params.num_secondaries = 5;
                    clients_per_secondary = int_of_float x;
                  }
                in
                let cfg =
                  {
                    (Sim_system.config params Session.Weak ~seed:opts.seed) with
                    Sim_system.fence;
                  }
                in
                let tag = Printf.sprintf "%s clients=%g" label x in
                let outcomes = replicate opts ~tag cfg in
                { x; interval = interval_of read_rt outcomes })
              xs;
        })
      policies
  in
  {
    id = "fig-plan";
    title =
      "Cost of Uniform vs Planner-Mixed Session Fences, fence_mix workload \
       shape";
    xlabel = "clients per secondary (5 secondaries)";
    ylabel = "mean read-only response time (s)";
    series;
    notes =
      [
        Printf.sprintf
          "The static plan for fence_mix assigns Session_seq fences to %d of \
           %d read-only templates (the inversion-prone fraction); the mixed \
           series fences exactly that fraction of reads, the uniform series \
           fences all of them (the whole-workload weakest-safe guarantee, \
           %s), and the weak series none. The gap between uniform and mixed \
           is the latency the planner saves; the gap between mixed and weak \
           is the price of correctness."
          (List.length fenced) (List.length readers)
          (Session.guarantee_name plan.Lsr_analysis.Plan.uniform);
      ];
  }

(* --- Ablations -------------------------------------------------------------- *)

let ablate_propagation opts =
  let base = base_of opts in
  let xs = [ 0.01; 0.05; 0.10; 0.20 ] in
  let series_of ~label ~ship =
    {
      label;
      points =
        List.map
          (fun abort_prob ->
            let params = { base with Params.abort_prob } in
            let cfg =
              {
                (Sim_system.config params Session.Weak ~seed:opts.seed) with
                Sim_system.ship_aborted = ship;
              }
            in
            let tag = Printf.sprintf "%s abort=%g" label abort_prob in
            let outcomes = replicate opts ~tag cfg in
            {
              x = abort_prob;
              interval =
                interval_of
                  (fun o -> o.Sim_system.secondary_utilization *. 100.)
                  outcomes;
            })
          xs;
    }
  in
  {
    id = "ablate-propagation";
    title =
      "Secondary utilization: commit-time propagation vs eager (ships aborted \
       work)";
    xlabel = "abort probability";
    ylabel = "secondary utilization (%)";
    series =
      [
        series_of ~label:"commit-time (Alg 3.1)" ~ship:false;
        series_of ~label:"eager (simple method)" ~ship:true;
      ];
    notes =
      [
        "Algorithm 3.1 ships updates only at commit, so secondaries never \
         execute work for transactions that abort.";
      ];
  }

let ablate_applicators opts =
  let base = base_of opts in
  let xs =
    if opts.quick then [ 100.; 200. ] else [ 50.; 100.; 150.; 200.; 250. ]
  in
  let series_of ~label ~serial =
    {
      label;
      points =
        List.map
          (fun clients ->
            let params =
              {
                base with
                Params.num_secondaries = 5;
                clients_per_secondary = int_of_float clients / 5;
              }
            in
            let cfg =
              {
                (Sim_system.config params Session.Strong_session ~seed:opts.seed) with
                Sim_system.serial_refresh = serial;
              }
            in
            let tag = Printf.sprintf "%s clients=%g" label clients in
            let outcomes = replicate opts ~tag cfg in
            {
              x = clients;
              interval =
                interval_of (fun o -> o.Sim_system.refresh_staleness_mean) outcomes;
            })
          xs;
    }
  in
  {
    id = "ablate-applicators";
    title = "Replica staleness: concurrent applicators vs serial refresh";
    xlabel = "clients";
    ylabel = "mean refresh staleness (s)";
    series =
      [
        series_of ~label:"concurrent applicators (Alg 3.2/3.3)" ~serial:false;
        series_of ~label:"serial refresh" ~serial:true;
      ];
    notes =
      [
        "Staleness = seconds between an update's primary commit and its \
         refresh commit at a secondary (strong session SI, 80/20).";
      ];
  }

let ablate_pcsi opts =
  let base = base_of opts in
  let xs = [ 0.; 0.25; 0.5; 1. ] in
  let series_of alg =
    {
      label = Session.guarantee_name alg;
      points =
        List.map
          (fun migrate_prob ->
            let params =
              {
                base with
                Params.num_secondaries = 5;
                (* Let replicas genuinely diverge in freshness, otherwise
                   simultaneous broadcast hides the read-floor cost. *)
                propagation_jitter = 2. *. base.Params.propagation_delay;
              }
            in
            let cfg =
              {
                (Sim_system.config params alg ~seed:opts.seed) with
                Sim_system.migrate_prob;
              }
            in
            let tag =
              Printf.sprintf "%s migrate=%g" (Session.guarantee_name alg)
                migrate_prob
            in
            let outcomes = replicate opts ~tag cfg in
            { x = migrate_prob; interval = interval_of read_rt outcomes })
          xs;
    }
  in
  {
    id = "ablate-pcsi";
    title =
      "Read-only response time under read load-balancing: strong session SI \
       vs PCSI";
    xlabel = "migration probability";
    ylabel = "read-only response time (s)";
    series =
      List.map series_of
        [ Session.Strong_session; Session.Prefix_consistent; Session.Weak ];
    notes =
      [
        "When reads migrate between secondaries, strong session SI must also \
         keep snapshots from moving backwards (its read floor), so it waits \
         more than PCSI, which only orders reads after the session's own \
         updates (§7, Elnikety et al).";
      ];
  }

let ablate_contention opts =
  let base = params_for ~quick:opts.quick in
  let xs = [ 0.; 0.8; 1.1; 1.4 ] in
  let series_of guarantee =
    {
      label = Session.guarantee_name guarantee;
      points =
        List.map
          (fun key_skew ->
            let params =
              {
                base with
                Params.key_skew;
                num_secondaries = 5;
                (* Load the primary: conflicts need concurrency. *)
                clients_per_secondary = 50;
              }
            in
            let cfg = Sim_system.config params guarantee ~seed:opts.seed in
            let tag =
              Printf.sprintf "%s skew=%g" (Session.guarantee_name guarantee)
                key_skew
            in
            let outcomes = replicate opts ~tag cfg in
            let conflicts_per_k (o : Sim_system.outcome) =
              1000. *. float_of_int o.Sim_system.fcw_aborts
              /. float_of_int (max 1 o.Sim_system.updates_completed)
            in
            { x = key_skew; interval = interval_of conflicts_per_k outcomes })
          xs;
    }
  in
  {
    id = "ablate-contention";
    title = "First-committer-wins conflicts under key skew (Zipf), 250 clients";
    xlabel = "Zipf exponent";
    ylabel = "FCW aborts per 1000 committed updates";
    series = [ series_of Session.Weak ];
    notes =
      [
        "The paper models aborts as a flat 1% probability; with skewed keys \
         the engine's real first-committer-wins rule fires, and the abort \
         records flow through propagation so secondaries discard the work.";
      ];
  }

let ablate_delay opts =
  let base = base_of opts in
  let xs = [ 1.; 10.; 30. ] in
  let series_of alg =
    {
      label = Session.guarantee_name alg;
      points =
        List.map
          (fun propagation_delay ->
            let params =
              { base with Params.propagation_delay; num_secondaries = 5 }
            in
            let cfg = Sim_system.config params alg ~seed:opts.seed in
            let tag =
              Printf.sprintf "%s delay=%g" (Session.guarantee_name alg)
                propagation_delay
            in
            let outcomes = replicate opts ~tag cfg in
            { x = propagation_delay; interval = interval_of read_rt outcomes })
          xs;
    }
  in
  {
    id = "ablate-delay";
    title = "Read-only response time vs propagation delay";
    xlabel = "propagation delay (s)";
    ylabel = "read-only response time (s)";
    series = List.map series_of [ Session.Strong_session; Session.Weak ];
    notes =
      [
        "The session-SI penalty is the gap to ALG-WEAK-SI; it scales with \
         the propagation cycle because blocked reads wait for the next \
         refresh.";
      ];
  }
