(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Table 1, Figures 2-8) and runs the ablation studies
   from DESIGN.md.

   Default invocation (`dune exec bench/main.exe`) runs everything at paper
   scale (35-minute simulated runs, 5 replications per point). Use --quick
   for a shape-preserving fast pass. *)

open Lsr_experiments

let opts ~quick ~seed ~verbose ~report =
  {
    Figures.quick;
    seed;
    progress =
      (if verbose then fun msg -> Printf.eprintf "  [run] %s\n%!" msg
       else ignore);
    base_params = None;
    report;
  }

let emit ~csv figure =
  Report.print_figure figure;
  match csv with
  | None -> ()
  | Some dir ->
    let path = Report.write_csv ~dir figure in
    Printf.printf "(csv written to %s)\n%!" path

let run_table1 ~quick = Report.print_table1 (Figures.params_for ~quick)

(* --- Fault-injection scenarios (docs/FAULTS.md) ----------------------------- *)

(* Runs the simulated system with the propagation channels subjected to
   increasingly hostile networks and prints the per-channel counters next to
   the performance numbers: the protocol must keep its guarantees (check
   errors = 0) while the retransmission layer pays for the faults in
   staleness and queue depth. *)
let run_faults ~quick ~seed ~report =
  let open Lsr_workload in
  let params =
    {
      Params.default with
      Params.num_secondaries = 3;
      clients_per_secondary = 5;
      warmup = 60.;
      duration = (if quick then 300. else 900.);
    }
  in
  let scenarios =
    [
      ("reliable", Some Lsr_core.Channel.reliable);
      ("mild", Some Lsr_core.Channel.default);
      ("chaos", Some Lsr_core.Channel.chaos);
    ]
  in
  let rows =
    List.map
      (fun (name, faults) ->
        let cfg =
          {
            (Sim_system.config params Lsr_core.Session.Strong_session ~seed) with
            Sim_system.record_history = true;
            faults;
          }
        in
        let o = Run_report.run report ~tag:("faults " ^ name) cfg in
        [
          name;
          Printf.sprintf "%.2f" o.Sim_system.throughput_fast;
          Printf.sprintf "%.3f" o.Sim_system.refresh_staleness_mean;
          string_of_int o.Sim_system.channels.dropped;
          string_of_int o.Sim_system.channels.retransmitted;
          string_of_int o.Sim_system.channels.duplicated;
          string_of_int
            (max o.Sim_system.channels.max_flight
               o.Sim_system.channels.max_ooo);
          string_of_int (List.length o.Sim_system.check_errors);
        ])
      scenarios
  in
  Lsr_stats.Table_fmt.print
    ~title:"Fault injection on the propagation channels (strong session SI)"
    ~header:
      [
        "scenario"; "tput"; "staleness"; "dropped"; "retrans"; "dup";
        "max queue"; "check errs";
      ]
    rows

(* --- Smoke run (CI observability check) ------------------------------------- *)

(* A deliberately tiny deterministic run whose only purpose is to exercise
   the whole observability pipeline: the counters move, the watchdog and the
   flight recorder see every stage, and --report produces its file in a
   couple of seconds. Used by the `runtest` smoke rule, which pins both the
   stdout and the report byte for byte. *)
let run_smoke ~seed ~report =
  let open Lsr_workload in
  let params =
    {
      Params.default with
      Params.num_secondaries = 2;
      clients_per_secondary = 3;
      warmup = 5.;
      duration = 60.;
    }
  in
  let o =
    Run_report.run report ~tag:"smoke"
      (Sim_system.config params Lsr_core.Session.Strong_session ~seed)
  in
  Printf.printf
    "smoke: tput=%.2f reads=%d updates=%d refresh_commits=%d \
     flight_events=%d\n%!"
    o.Sim_system.throughput_fast o.Sim_system.reads_completed
    o.Sim_system.updates_completed o.Sim_system.refresh_commits
    o.Sim_system.flight_events;
  match o.Sim_system.watchdog_verdict with
  | None -> ()
  | Some v ->
    Printf.printf
      "smoke watchdog: alerts=%d inversions=%d/%d/%d mismatches=%d \
       fence_failures=%d peak_state=%d\n%!"
      v.Lsr_core.Watchdog.alerts_total v.Lsr_core.Watchdog.v_inversions_all
      v.Lsr_core.Watchdog.v_inversions_in_session
      v.Lsr_core.Watchdog.v_inversions_after_update
      v.Lsr_core.Watchdog.read_mismatches v.Lsr_core.Watchdog.fence_failures
      o.Sim_system.watchdog_peak_state

(* --- Static SI-anomaly analysis -------------------------------------------- *)

(* Summarizes the static analyzer's verdict on every built-in template
   workload — how many dangerous structures and session flags each one has
   and the weakest guarantee that makes it safe. With --csv DIR the full
   reports land in DIR/analysis.json and the plans in DIR/plans.json. *)
let run_analysis ~csv =
  let reports =
    List.map
      (fun (name, templates) ->
        Lsr_analysis.Analyzer.run ~workload:name templates)
      (Lsr_analysis.Builtin.workloads ())
  in
  let rows =
    List.map
      (fun (r : Lsr_analysis.Analyzer.report) ->
        let open Lsr_analysis in
        [
          r.Analyzer.workload;
          string_of_int (List.length r.Analyzer.sdg.Sdg.templates);
          string_of_int (List.length r.Analyzer.sdg.Sdg.edges);
          string_of_int (List.length r.Analyzer.dangerous);
          string_of_int (List.length r.Analyzer.session_flags);
          Lsr_core.Session.guarantee_name
            (Session_pass.needed_guarantee r.Analyzer.session_flags);
          (if r.Analyzer.dangerous = [] then "serializable under SI"
           else "write skew possible");
        ])
      reports
  in
  Lsr_stats.Table_fmt.print
    ~title:"Static SI-anomaly analysis of the built-in workloads"
    ~header:
      [
        "workload"; "templates"; "edges"; "dangerous"; "session flags";
        "needs"; "verdict";
      ]
    rows;
  (* The planner's summary over the same workloads: what the mixed
     per-template assignment costs vs pricing everything at the uniform
     weakest-safe guarantee. *)
  let plans =
    List.map
      (fun (name, templates) ->
        Lsr_analysis.Plan.infer ~workload:name templates)
      (Lsr_analysis.Builtin.workloads ())
  in
  let plan_rows =
    List.map
      (fun (p : Lsr_analysis.Plan.t) ->
        let open Lsr_analysis in
        let fenced =
          List.length
            (List.filter
               (fun (a : Plan.assignment) -> a.Plan.fence <> None)
               p.Plan.assignments)
        in
        [
          p.Plan.workload;
          Lsr_core.Session.guarantee_name p.Plan.uniform;
          string_of_int (Plan.uniform_cost p);
          string_of_int (Plan.mixed_cost p);
          string_of_int fenced;
          string_of_int (List.length p.Plan.residual);
        ])
      plans
  in
  Lsr_stats.Table_fmt.print
    ~title:"Workload plans (mixed per-template assignment)"
    ~header:
      [
        "workload"; "uniform needs"; "uniform cost"; "mixed cost";
        "fenced templates"; "residual";
      ]
    plan_rows;
  match csv with
  | None -> ()
  | Some dir ->
    let write_json file json =
      let file = Filename.concat dir file in
      Lsr_obs.Json.write_file ~file json;
      Printf.printf "(analysis written to %s)\n%!" file
    in
    write_json "analysis.json"
      (Lsr_obs.Json.Arr (List.map Lsr_analysis.Analyzer.to_json reports));
    write_json "plans.json"
      (Lsr_obs.Json.Arr (List.map Lsr_analysis.Plan.to_json plans))

(* --- Command line ------------------------------------------------------------ *)

open Cmdliner

let quick_arg =
  let doc = "Shorter runs and fewer replications (shape-preserving)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed_arg =
  let doc = "Root random seed for the sweeps." in
  Arg.(value & opt int 20060912 & info [ "seed" ] ~doc)

let csv_arg =
  let doc = "Also write each figure as CSV into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let verbose_arg =
  let doc = "Print per-run progress to stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let report_arg =
  let doc =
    "Attach every observer to every run (metrics, a 1 virtual-second \
     system monitor, the online consistency watchdog and the flight \
     recorder), print the per-site freshness table and the last run's \
     bottleneck report, and write the whole run report as JSON to $(docv): \
     per-run bottleneck, watchdog and flight sections plus the freshness, \
     metrics and time-series sections of the invocation."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let spec_ids group =
  List.filter_map
    (fun (s : Figures.spec) -> if s.group = group then Some s.id else None)
    Figures.specs

let paper_figures = spec_ids Figures.Paper_figure
let paper_ablations = spec_ids Figures.Paper_ablation
let all_targets = ("table1" :: paper_figures) @ paper_ablations

(* Runnable explicitly but excluded from `all` (extension studies and the
   CI observability smoke run). *)
let extra_targets = spec_ids Figures.Extension @ [ "faults"; "smoke"; "analyze" ]

let targets_arg =
  let doc =
    Printf.sprintf
      "What to regenerate: table1, %s, figures (%s), ablations (%s) or all \
       (default). Extension studies (excluded from all): %s. \
       Host-time measurement lives in $(b,lsrbench) (bench/suite)."
      (String.concat ", " (paper_figures @ paper_ablations))
      (String.concat " " paper_figures)
      (String.concat " " paper_ablations)
      (String.concat ", " extra_targets)
  in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"TARGET" ~doc)

let expand target =
  match target with
  | "all" -> all_targets
  | "figures" -> paper_figures
  | "ablations" -> paper_ablations
  | t -> [ t ]

let main quick seed csv verbose report_file targets =
  let wanted = List.concat_map expand targets in
  let unknown =
    List.filter
      (fun t -> not (List.mem t all_targets || List.mem t extra_targets))
      wanted
  in
  match unknown with
  | t :: _ -> `Error (false, Printf.sprintf "unknown target %S" t)
  | [] ->
    let report =
      if Option.is_some report_file then Run_report.create ()
      else Run_report.null
    in
    let opts = opts ~quick ~seed ~verbose ~report in
    Printf.printf "lazy-replication benchmark harness (%s mode, seed %d)\n%!"
      (if quick then "quick" else "paper-scale")
      seed;
    if List.mem "table1" wanted then run_table1 ~quick;
    List.iter (emit ~csv) (Figures.run opts wanted);
    if List.mem "faults" wanted then run_faults ~quick ~seed ~report;
    if List.mem "smoke" wanted then run_smoke ~seed ~report;
    if List.mem "analyze" wanted then run_analysis ~csv;
    Option.iter
      (fun file ->
        print_string (Run_report.summary report);
        Lsr_obs.Json.write_file ~file (Run_report.to_json report);
        Printf.printf "(report written to %s)\n%!" file)
      report_file;
    `Ok ()

let cmd =
  let doc =
    "regenerate the evaluation of 'Lazy Database Replication with Snapshot \
     Isolation' (VLDB 2006)"
  in
  let info = Cmd.info "lsr-bench" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ quick_arg $ seed_arg $ csv_arg $ verbose_arg $ report_arg
       $ targets_arg))

let () = exit (Cmd.eval cmd)
