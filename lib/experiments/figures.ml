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

type line = {
  name : string;
  cell : Params.t -> float -> string * Sim_system.config;
  metric : Sim_system.outcome -> float;
}

type group = Paper_figure | Paper_ablation | Extension
type walk = By_x | By_line | By_line_reversed

type spec = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  notes : string list;
  group : group;
  xs : float list;
  quick_xs : float list;
  walk : walk;
  lines : line list;
  ideal : string option;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;
}

let algorithms = [ Session.Strong_session; Session.Weak; Session.Strong ]

let params_for ~quick =
  if quick then Params.quick Params.default else Params.default

(* --- The spec table ------------------------------------------------------- *)

(* Every config starts unseeded: [run] seeds each replication from the tag. *)
let config params guarantee = Sim_system.config params guarantee ~seed:0

let spec ~id ~title ~xlabel ~ylabel ?(notes = []) ?(group = Extension)
    ?(walk = By_line) ?ideal ~xs ?(quick_xs = xs) lines =
  { id; title; xlabel; ylabel; notes; group; xs; quick_xs; walk; lines; ideal }

(* One series, tagged "<name> <key>=<x>". *)
let variant name ~key ~metric make =
  {
    name;
    cell = (fun base x -> (Printf.sprintf "%s %s=%g" name key x, make base x));
    metric;
  }

let per_guarantee guarantees ~key ~metric make =
  List.map
    (fun g ->
      variant (Session.guarantee_name g) ~key ~metric (fun base x ->
          make base x g))
    guarantees

(* x = total clients over 5 secondaries. *)
let at_clients base x =
  let clients_per_secondary = int_of_float x / 5 in
  config { base with Params.num_secondaries = 5; clients_per_secondary }

let throughput (o : Sim_system.outcome) = o.Sim_system.throughput_fast
let read_rt (o : Sim_system.outcome) = o.Sim_system.read_rt_mean

(* Figures 2-8: one series per guarantee over [key], one figure per metric
   (throughput, read and update response time) for each of [ids]; [ideal]
   goes on the throughput figure. *)
let sweep ~context ~key ~xs ~quick_xs ?ideal make ids =
  List.mapi
    (fun i id ->
      let title, ylabel, metric =
        List.nth
          [
            ( "Transaction Throughput (finishing within 3s)",
              "throughput (tps)",
              throughput );
            ( "Read-Only Transaction Response Time",
              "response time (s)",
              read_rt );
            ( "Update Transaction Response Time",
              "response time (s)",
              fun (o : Sim_system.outcome) -> o.Sim_system.update_rt_mean );
          ]
          i
      in
      spec ~id ~title:(title ^ ", " ^ context) ~xlabel:key ~ylabel
        ~group:Paper_figure ~walk:By_x
        ?ideal:(if i = 0 then ideal else None)
        ~xs ~quick_xs
        (per_guarantee algorithms ~key ~metric make))
    ids

let clients_xs = [ 25.; 50.; 75.; 100.; 125.; 150.; 175.; 200.; 225.; 250. ]
let clients_quick_xs = [ 50.; 100.; 150.; 200.; 250. ]

let fig2_3_4 =
  sweep ~context:"80/20 workload" ~key:"clients" ~xs:clients_xs
    ~quick_xs:clients_quick_xs at_clients [ "fig2"; "fig3"; "fig4" ]

(* The ideal line of Figures 5 and 8 extrapolates their ALG-STRONG-SESSION-SI
   series linearly from its first (smallest) system. *)
let ideal = Session.guarantee_name Session.Strong_session

let scale_sweep ~context ~xs ~quick_xs browsing =
  sweep ~context ~key:"secondaries" ~xs ~quick_xs ~ideal (fun base x ->
      let base = if browsing then Params.browsing base else base in
      config { base with Params.num_secondaries = int_of_float x })

let fig5_6_7 =
  scale_sweep ~context:"20 clients/secondary, 80/20 workload"
    ~xs:[ 1.; 3.; 5.; 7.; 9.; 11.; 13.; 15. ] ~quick_xs:[ 1.; 5.; 9.; 13. ]
    false [ "fig5"; "fig6"; "fig7" ]

let fig8 =
  scale_sweep ~context:"20 clients/secondary, 95/5 workload"
    ~xs:[ 5.; 15.; 25.; 35.; 45.; 55. ] ~quick_xs:[ 5.; 20.; 35.; 50. ]
    true [ "fig8" ]

(* Extension: how stale the snapshots read-only transactions observe become
   as offered load grows, on Figure 2's cells. *)
let fig_staleness =
  spec ~id:"fig-staleness"
    ~title:"Read Snapshot Staleness (p95 age) vs Load, 80/20 workload"
    ~xlabel:"clients" ~ylabel:"p95 snapshot age (s)"
    ~notes:
      [ "Snapshot age = virtual-time age of the newest primary commit a \
         read-only transaction's snapshot reflects (0 when its secondary was \
         fully caught up); the freshness definition of docs/TRACING.md." ]
    ~walk:By_x ~xs:[ 25.; 50.; 100.; 150.; 200.; 250. ]
    ~quick_xs:[ 50.; 150.; 250. ]
    (per_guarantee algorithms ~key:"clients"
       ~metric:(fun o -> o.Sim_system.read_age_p95)
       at_clients)

(* Extension: where the capacity goes — primary vs mean secondary
   utilization per guarantee, on Figure 2's cells. *)
let fig_utilization =
  spec ~id:"fig-utilization"
    ~title:"Per-Site Utilization vs Multiprogramming Level, 80/20 workload"
    ~xlabel:"clients" ~ylabel:"utilization (%)"
    ~notes:
      [ "Utilization is exact at the sampling instant (busy time pro-rated \
         for jobs still in service); \"secondary\" is the mean over the 5 \
         secondary sites. The bottleneck report names the resource that \
         saturates first at the throughput knee." ]
    ~walk:By_x ~xs:clients_xs ~quick_xs:clients_quick_xs
    (List.concat_map
       (fun l ->
         let site suffix util =
           { l with name = l.name ^ suffix; metric = (fun o -> util o *. 100.) }
         in
         [
           site " primary" (fun o -> o.Sim_system.primary_utilization);
           site " secondary" (fun o -> o.Sim_system.secondary_utilization);
         ])
       (per_guarantee algorithms ~key:"clients" ~metric:throughput at_clients))

(* Extension: the staleness/latency tradeoff of bounded-staleness fences.
   Every read carries a [Max_age d] fence under ALG-WEAK-SI (where a fence
   is the only thing that ever blocks a read) and d tightens left to right;
   x = infinity is the unfenced baseline. *)
let fig_fence =
  let cell base d =
    let cfg = at_clients base 100. Session.Weak (* 20 per secondary *) in
    if Float.is_finite d then
      ( Printf.sprintf "fence age=%g" d,
        { cfg with Sim_system.fence = All_reads (Session.Max_age d) } )
    else ("unfenced", cfg)
  in
  spec ~id:"fig-fence"
    ~title:
      "Bounded-Staleness Fences: Read Latency vs Observed Snapshot Age, \
       ALG-WEAK-SI, 80/20 workload"
    ~xlabel:"fence bound d (s; rightmost point = unfenced)" ~ylabel:"seconds"
    ~notes:
      [ "Every read carries a Max_age d fence: its snapshot must include \
         every primary commit older than d virtual seconds at submission \
         (the commit-clock visibility horizon). Tightening d trades read \
         latency for freshness; the unfenced run anchors the loose end. \
         Guarantee is ALG-WEAK-SI, so fences are the only source of read \
         blocking." ]
    ~walk:By_x
    ~xs:[ infinity; 60.; 30.; 10.; 3.; 1.; 0.3 ]
    ~quick_xs:[ infinity; 30.; 10.; 3.; 1. ]
    (List.map
       (fun (name, metric) -> { name; cell; metric })
       [
         ("read rt p50", fun o -> o.Sim_system.read_rt_p50);
         ("read rt p95", fun o -> o.Sim_system.read_rt_p95);
         ("snapshot age p95", fun o -> o.Sim_system.read_age_p95);
       ])

(* Extension: what the static planner's mixed assignment is worth at run
   time. The {!Lsr_analysis.Plan} for [fence_mix] fences exactly the
   inversion-prone fraction of its read-only templates; three deployments
   of the same load — every read Session_seq-fenced (the uniform
   weakest-safe guarantee), the planned fraction fenced, none fenced —
   priced as mean read response time vs load. *)
let fig_plan =
  let open Lsr_analysis in
  let plan = Plan.infer ~workload:"fence_mix" (Builtin.fence_mix ()) in
  let readers =
    List.filter (fun (a : Plan.assignment) -> a.read_only) plan.assignments
  in
  let fenced =
    List.filter (fun (a : Plan.assignment) -> a.fence <> None) readers
  in
  (* Assumes the template mix spreads reads evenly over the read-only
     templates. *)
  let phi =
    float_of_int (List.length fenced)
    /. float_of_int (max 1 (List.length readers))
  in
  let line name fence =
    variant name ~key:"clients" ~metric:read_rt (fun base x ->
        let clients_per_secondary = int_of_float x in
        let params =
          { base with Params.num_secondaries = 5; clients_per_secondary }
        in
        { (config params Session.Weak) with Sim_system.fence })
  in
  spec ~id:"fig-plan"
    ~title:
      "Cost of Uniform vs Planner-Mixed Session Fences, fence_mix workload \
       shape"
    ~xlabel:"clients per secondary (5 secondaries)"
    ~ylabel:"mean read-only response time (s)"
    ~notes:
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
          (Session.guarantee_name plan.uniform);
      ]
    ~xs:[ 5.; 10.; 20.; 40.; 60. ] ~quick_xs:[ 10.; 30. ]
    [
      line "uniform strong-session fences" (All_reads Session.Session_seq);
      line
        (Printf.sprintf "planned mix (%.0f%% fenced)" (100. *. phi))
        (Fence_mix [ (phi, Some Session.Session_seq); (1. -. phi, None) ]);
      line "weak (no fences, inversions possible)" No_fence;
    ]

(* --- Ablations ------------------------------------------------------------ *)

let ablate_propagation =
  let line name ship_aborted =
    variant name ~key:"abort"
      ~metric:(fun o -> o.Sim_system.secondary_utilization *. 100.)
      (fun base abort_prob ->
        let cfg = config { base with Params.abort_prob } Session.Weak in
        { cfg with Sim_system.ship_aborted })
  in
  spec ~id:"ablate-propagation" ~group:Paper_ablation ~walk:By_line_reversed
    ~title:
      "Secondary utilization: commit-time propagation vs eager (ships aborted \
       work)"
    ~xlabel:"abort probability" ~ylabel:"secondary utilization (%)"
    ~notes:
      [ "Algorithm 3.1 ships updates only at commit, so secondaries never \
         execute work for transactions that abort." ]
    ~xs:[ 0.01; 0.05; 0.10; 0.20 ]
    [ line "commit-time (Alg 3.1)" false; line "eager (simple method)" true ]

let ablate_applicators =
  let line name serial_refresh =
    variant name ~key:"clients"
      ~metric:(fun o -> o.Sim_system.refresh_staleness_mean)
      (fun base x ->
        let cfg = at_clients base x Session.Strong_session in
        { cfg with Sim_system.serial_refresh })
  in
  spec ~id:"ablate-applicators" ~group:Paper_ablation ~walk:By_line_reversed
    ~title:"Replica staleness: concurrent applicators vs serial refresh"
    ~xlabel:"clients" ~ylabel:"mean refresh staleness (s)"
    ~notes:
      [ "Staleness = seconds between an update's primary commit and its \
         refresh commit at a secondary (strong session SI, 80/20)." ]
    ~xs:[ 50.; 100.; 150.; 200.; 250. ] ~quick_xs:[ 100.; 200. ]
    [
      line "concurrent applicators (Alg 3.2/3.3)" false;
      line "serial refresh" true;
    ]

let ablate_pcsi =
  spec ~id:"ablate-pcsi" ~group:Paper_ablation
    ~title:
      "Read-only response time under read load-balancing: strong session SI \
       vs PCSI"
    ~xlabel:"migration probability" ~ylabel:"read-only response time (s)"
    ~notes:
      [ "When reads migrate between secondaries, strong session SI must also \
         keep snapshots from moving backwards (its read floor), so it waits \
         more than PCSI, which only orders reads after the session's own \
         updates (§7, Elnikety et al)." ]
    ~xs:[ 0.; 0.25; 0.5; 1. ]
    (per_guarantee
       [ Session.Strong_session; Session.Prefix_consistent; Session.Weak ]
       ~key:"migrate" ~metric:read_rt (fun base migrate_prob g ->
         let params =
           {
             base with
             Params.num_secondaries = 5;
             (* Let replicas genuinely diverge in freshness, otherwise
                simultaneous broadcast hides the read-floor cost. *)
             propagation_jitter = 2. *. base.Params.propagation_delay;
           }
         in
         { (config params g) with Sim_system.migrate_prob }))

let ablate_delay =
  spec ~id:"ablate-delay" ~group:Paper_ablation
    ~title:"Read-only response time vs propagation delay"
    ~xlabel:"propagation delay (s)" ~ylabel:"read-only response time (s)"
    ~notes:
      [ "The session-SI penalty is the gap to ALG-WEAK-SI; it scales with \
         the propagation cycle because blocked reads wait for the next \
         refresh." ]
    ~xs:[ 1.; 10.; 30. ]
    (per_guarantee [ Session.Strong_session; Session.Weak ] ~key:"delay"
       ~metric:read_rt (fun base propagation_delay ->
         config { base with Params.propagation_delay; num_secondaries = 5 }))

(* Extension: Zipf key skew makes the primary's first-committer-wins rule
   fire, and the abort records flow through propagation. *)
let ablate_contention =
  spec ~id:"ablate-contention"
    ~title:"First-committer-wins conflicts under key skew (Zipf), 250 clients"
    ~xlabel:"Zipf exponent" ~ylabel:"FCW aborts per 1000 committed updates"
    ~notes:
      [ "The paper models aborts as a flat 1% probability; with skewed keys \
         the engine's real first-committer-wins rule fires, and the abort \
         records flow through propagation so secondaries discard the work." ]
    ~xs:[ 0.; 0.8; 1.1; 1.4 ]
    (per_guarantee [ Session.Weak ] ~key:"skew"
       ~metric:(fun o ->
         1000. *. float_of_int o.Sim_system.fcw_aborts
         /. float_of_int (max 1 o.Sim_system.updates_completed))
       (fun base key_skew ->
         (* Load the primary: conflicts need concurrency. *)
         at_clients { base with Params.key_skew } 250.))

let specs =
  fig2_3_4 @ fig5_6_7 @ fig8
  @ [
      fig_staleness; fig_utilization; fig_fence; fig_plan; ablate_propagation;
      ablate_applicators; ablate_pcsi; ablate_delay; ablate_contention;
    ]

(* --- Jobs and the reducer ------------------------------------------------- *)

(* A job is one replication. Two jobs are the same when their seeded configs
   agree outside the observer sinks, which never change an outcome. The tag
   is no key: Figures 5 and 8 both tag "<alg> secondaries=5" over different
   workloads. *)
let job_key (cfg : Sim_system.config) =
  {
    cfg with
    Sim_system.obs = Lsr_obs.Obs.null;
    flight = Lsr_obs.Flight.null;
    monitor = Monitor.null;
  }

(* An unbounded setting (x = infinity) is plotted one decade past the
   largest finite x, so the axis stays finite. *)
let plot_x xs x =
  if Float.is_finite x then x
  else
    10.
    *. List.fold_left
         (fun acc x -> if Float.is_finite x then Float.max acc x else acc)
         1. xs

(* The "y = x" line: the reference series' first point, scaled linearly. *)
let ideal_series reference series =
  let points =
    match (List.find (fun s -> s.label = reference) series).points with
    | [] -> []
    | first :: _ as points ->
      let per_site = first.interval.Confidence.mean /. first.x in
      List.map
        (fun p ->
          {
            x = p.x;
            interval =
              { Confidence.mean = p.x *. per_site; half_width = 0.; n = 1 };
          })
        points
  in
  { label = "ideal (linear)"; points }

let run opts ids =
  let base =
    Option.value opts.base_params ~default:(params_for ~quick:opts.quick)
  in
  let wanted = List.filter (fun (s : spec) -> List.mem s.id ids) specs in
  let xs_of spec = if opts.quick then spec.quick_xs else spec.xs in
  (* The job table, in first-use order: [replications] registers a cell's
     jobs and returns their indices. *)
  let index = Hashtbl.create 256 and jobs = ref [] in
  let replications line x =
    let tag, cfg = line.cell base x in
    let reps = cfg.Sim_system.params.Params.replications in
    List.init reps (fun i ->
        let cfg =
          {
            cfg with
            Sim_system.seed = opts.seed + (1000 * i) + Hashtbl.hash tag;
          }
        in
        let key = job_key cfg in
        match Hashtbl.find_opt index key with
        | Some j -> j
        | None ->
          let j = Hashtbl.length index in
          Hashtbl.add index key j;
          jobs := (tag, i, reps, cfg) :: !jobs;
          j)
  in
  List.iter
    (fun spec ->
      let xs = xs_of spec and cell line x = ignore (replications line x) in
      match spec.walk with
      | By_x -> List.iter (fun x -> List.iter (fun l -> cell l x) spec.lines) xs
      | By_line -> List.iter (fun l -> List.iter (cell l) xs) spec.lines
      | By_line_reversed ->
        List.iter (fun l -> List.iter (cell l) xs) (List.rev spec.lines))
    wanted;
  let outcomes =
    Array.map
      (fun (tag, i, reps, cfg) ->
        let o =
          Run_report.run opts.report
            ~tag:(Printf.sprintf "%s rep %d" tag (i + 1))
            cfg
        in
        opts.progress
          (Printf.sprintf "%s rep %d/%d: %.2f tps" tag (i + 1) reps
             o.Sim_system.throughput_fast);
        o)
      (Array.of_list (List.rev !jobs))
  in
  (* The reducer: every cell's replications to one 95% interval. *)
  let point xs line x =
    let samples =
      List.map (fun j -> line.metric outcomes.(j)) (replications line x)
    in
    { x = plot_x xs x; interval = Confidence.of_samples samples }
  in
  List.map
    (fun spec ->
      let xs = xs_of spec in
      let series =
        List.map
          (fun l -> { label = l.name; points = List.map (point xs l) xs })
          spec.lines
      in
      let series =
        match spec.ideal with
        | Some reference -> ideal_series reference series :: series
        | None -> series
      in
      let ({ id; title; xlabel; ylabel; notes; _ } : spec) = spec in
      { id; title; xlabel; ylabel; series; notes })
    wanted
