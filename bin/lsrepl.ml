(* lsrepl: command-line front end for the lazy-replication library.

   - `lsrepl simulate`  runs one simulation of the replicated system and
     prints the measured outcome (optionally validating it with the checker);
   - `lsrepl demo`      walks the paper's bookstore scenario under a chosen
     guarantee, showing inversions or their prevention;
   - `lsrepl bottleneck` runs one simulation with full queueing telemetry and
     prints the bottleneck report (resource ranking, per-class residence-time
     breakdown), optionally writing the whole run report;
   - `lsrepl params`    prints the Table 1 parameter set;
   - `lsrepl trace`     runs a small scripted workload and dumps the recorded
     history with the checker's verdict;
   - `lsrepl analyze`   statically analyzes transaction-template workloads for
     SI anomalies (dangerous structures) and session-guarantee needs. *)

open Cmdliner
open Lsr_core
open Lsr_workload
open Lsr_experiments

let guarantee_conv =
  let parse = function
    | "weak" -> Ok Session.Weak
    | "pcsi" -> Ok Session.Prefix_consistent
    | "session" -> Ok Session.Strong_session
    | "strong" -> Ok Session.Strong
    | s ->
      Error
        (`Msg (Printf.sprintf "unknown guarantee %S (weak|pcsi|session|strong)" s))
  in
  let print ppf g =
    Format.pp_print_string ppf
      (match g with
      | Session.Weak -> "weak"
      | Session.Prefix_consistent -> "pcsi"
      | Session.Strong_session -> "session"
      | Session.Strong -> "strong")
  in
  Arg.conv (parse, print)

let guarantee_arg =
  let doc = "Correctness guarantee: weak, pcsi, session or strong." in
  Arg.(value & opt guarantee_conv Session.Strong_session & info [ "guarantee"; "g" ] ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

(* Counts and durations are range-checked while parsing, so an out-of-range
   value is a usage error naming its option (exit 124) rather than a crash
   or a run that reports nonsense. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %d" lo n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let duration_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok d when not (Float.is_finite d && d > 0.) ->
      Error (`Msg (Printf.sprintf "expected a finite duration > 0, got %s" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let secondaries_arg ~default =
  Arg.(
    value
    & opt (int_at_least 1) default
    & info [ "secondaries"; "s" ] ~doc:"Secondary sites.")

(* --- shared workload options -----------------------------------------------------

   simulate and bottleneck size the simulated system with the same four
   flags and derive the same Params record from them; one term bundle keeps
   the option names, defaults and the params/banner derivation from
   drifting apart between subcommands. *)

type workload_opts = {
  w_secondaries : int;
  w_clients : int;
  w_browsing : bool;
  w_duration : float;
}

let workload_term =
  let secondaries = secondaries_arg ~default:5 in
  let clients =
    Arg.(
      value
      & opt (int_at_least 1) 20
      & info [ "clients"; "c" ] ~doc:"Clients per secondary.")
  in
  let browsing =
    Arg.(value & flag & info [ "browsing" ] ~doc:"Use the 95/5 TPC-W browsing mix.")
  in
  let duration =
    Arg.(
      value & opt duration_conv 600.
      & info [ "duration"; "d" ] ~doc:"Simulated seconds.")
  in
  Term.(
    const (fun w_secondaries w_clients w_browsing w_duration ->
        { w_secondaries; w_clients; w_browsing; w_duration })
    $ secondaries $ clients $ browsing $ duration)

let workload_params w =
  let base =
    if w.w_browsing then Params.browsing Params.default else Params.default
  in
  {
    base with
    Params.num_secondaries = w.w_secondaries;
    clients_per_secondary = w.w_clients;
    duration = w.w_duration;
    warmup = min (w.w_duration /. 5.) Params.default.Params.warmup;
  }

let workload_mix w = if w.w_browsing then "95/5" else "80/20"

(* --- simulate ------------------------------------------------------------------ *)

let simulate guarantee seed w serial ship validate watchdog open_loop arrival
    session_pool fence report_file =
  let params = workload_params w in
  let client_mode =
    match open_loop with
    | 0 -> Sim_system.Closed_loop
    | n -> Sim_system.Open_loop { clients = n; arrival; session_pool }
  in
  let report =
    if report_file = None then Run_report.null else Run_report.create ()
  in
  let cfg =
    {
      (Sim_system.config params guarantee ~seed) with
      Sim_system.record_history = validate;
      watchdog;
      serial_refresh = serial;
      ship_aborted = ship;
      client_mode;
      fence =
        (match fence with
        | None -> Sim_system.No_fence
        | Some f -> Sim_system.All_reads f);
    }
  in
  (match client_mode with
  | Sim_system.Closed_loop ->
    Printf.printf "simulating %s: %d secondaries x %d clients, %s mix, %.0fs\n%!"
      (Session.guarantee_name guarantee)
      w.w_secondaries w.w_clients (workload_mix w) w.w_duration
  | Sim_system.Open_loop { clients; arrival; _ } ->
    Printf.printf
      "simulating %s: %d secondaries, open loop (%d modeled clients/site, %s \
       arrivals, %.1f txn/s/site), %s mix, %.0fs\n\
       %!"
      (Session.guarantee_name guarantee)
      w.w_secondaries clients
      (match arrival with
      | Sim_system.Poisson -> "poisson"
      | Sim_system.Mmpp b -> Printf.sprintf "mmpp x%.1f" b)
      (Sim_system.offered_rate params ~clients)
      (workload_mix w) w.w_duration);
  Option.iter
    (fun f ->
      Printf.printf "freshness fence on every read: %s\n%!"
        (Session.fence_to_string f))
    fence;
  let o = Run_report.run report ~tag:"simulate" cfg in
  let rows =
    [
      [ "throughput (<=3s)"; Printf.sprintf "%.2f tps" o.Sim_system.throughput_fast ];
      [ "read-only response time"; Printf.sprintf "%.3f s" o.Sim_system.read_rt_mean ];
      [ "read-only p95"; Printf.sprintf "%.3f s" o.Sim_system.read_rt_p95 ];
      [ "update response time"; Printf.sprintf "%.3f s" o.Sim_system.update_rt_mean ];
      [ "update p95"; Printf.sprintf "%.3f s" o.Sim_system.update_rt_p95 ];
      [ "reads completed"; string_of_int o.Sim_system.reads_completed ];
      [ "updates completed"; string_of_int o.Sim_system.updates_completed ];
      [ "update aborts (restarted)"; string_of_int o.Sim_system.aborts ];
      [ "reads blocked on session"; string_of_int o.Sim_system.blocked_reads ];
    ]
    @ (if fence = None then []
       else [ [ "fenced reads"; string_of_int o.Sim_system.fenced_reads ] ])
    @ [
      [ "mean session wait"; Printf.sprintf "%.2f s" o.Sim_system.block_wait_mean ];
      [ "refresh transactions"; string_of_int o.Sim_system.refresh_commits ];
      [ "mean replica staleness"; Printf.sprintf "%.2f s" o.Sim_system.refresh_staleness_mean ];
      [ "wasted refresh operations"; string_of_int o.Sim_system.wasted_ops ];
      [ "primary utilization"; Printf.sprintf "%.1f%%" (100. *. o.Sim_system.primary_utilization) ];
      [ "secondary utilization"; Printf.sprintf "%.1f%%" (100. *. o.Sim_system.secondary_utilization) ];
    ]
  in
  let rows =
    rows
    @
    match o.Sim_system.watchdog_verdict with
    | None -> []
    | Some v ->
      [
        [ "watchdog alerts"; string_of_int v.Lsr_core.Watchdog.alerts_total ];
        [ "watchdog peak state"; string_of_int o.Sim_system.watchdog_peak_state ];
      ]
  in
  Lsr_stats.Table_fmt.print ~title:"outcome" ~header:[ "metric"; "value" ] rows;
  (match o.Sim_system.watchdog_verdict with
  | None -> ()
  | Some v ->
    let open Lsr_core.Watchdog in
    let clean = v.alerts_total = 0 in
    Printf.printf
      "\nwatchdog: %s — %d read mismatches, %d fence failures, inversions \
       all/session/after-update %d/%d/%d\n"
      (if clean then "guarantee held throughout the run"
       else "VIOLATIONS DETECTED ONLINE")
      v.read_mismatches v.fence_failures v.v_inversions_all
      v.v_inversions_in_session v.v_inversions_after_update;
    if not clean then begin
      let shown, rest =
        let rec split n = function
          | x :: tl when n > 0 ->
            let s, r = split (n - 1) tl in
            (x :: s, r)
          | l -> ([], List.length l)
        in
        split 10 o.Sim_system.watchdog_alerts
      in
      List.iter (fun a -> Format.printf "  %a@." pp_alert a) shown;
      if rest > 0 then Printf.printf "  ... and %d more retained alerts\n" rest;
      (* The retained log is bounded; say so explicitly when it truncated
         (the per-kind totals above stay exact past the cap). *)
      if v.alerts_dropped > 0 then
        Printf.printf
          "  ... and %d further alerts dropped past the bounded log's cap \
           (counts above remain exact)\n"
          v.alerts_dropped
    end);
  (match o.Sim_system.check_errors with
  | [] ->
    if validate then
      print_endline "\nchecker: run satisfies its guarantee and completeness"
  | es ->
    if validate then begin
      print_endline "\nchecker: VIOLATIONS FOUND";
      List.iter (fun e -> print_endline ("  " ^ e)) es
    end);
  Option.iter
    (fun file ->
      Lsr_obs.Json.write_file ~file (Run_report.to_json report);
      Printf.printf "\nflight recorder: %d events seen, %s — report written to %s\n"
        o.Sim_system.flight_events
        (match o.Sim_system.flight_trigger with
        | Some reason -> Printf.sprintf "postmortem triggered by %s" reason
        | None -> "no violation (end-of-run window captured)")
        file)
    report_file

let simulate_cmd =
  let serial =
    Arg.(value & flag & info [ "serial-refresh" ] ~doc:"Disable concurrent applicators.")
  in
  let ship =
    Arg.(value & flag & info [ "ship-aborted" ] ~doc:"Eager propagation of aborted work.")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Record the history and run the checker.")
  in
  let watchdog =
    let doc =
      "Attach the online consistency watchdog: weak-SI reads, inversion \
       floors and fence claims are checked incrementally as transactions \
       finish, in memory bounded by the active visibility window — so the \
       guarantee is verified even without $(b,--validate)'s full history \
       recording. Violations are reported as typed alerts the moment they \
       happen."
    in
    Arg.(value & flag & info [ "watchdog" ] ~doc)
  in
  let open_loop =
    let doc =
      "Model $(docv) clients per secondary with one aggregated open-loop \
       arrival process per site instead of per-client coroutines (0 = \
       closed loop). Scales to millions of modeled clients."
    in
    Arg.(
      value & opt (int_at_least 0) 0 & info [ "open-loop" ] ~docv:"CLIENTS" ~doc)
  in
  let arrival =
    let parse s =
      match String.lowercase_ascii s with
      | "poisson" -> Ok Sim_system.Poisson
      | s -> (
        match Scanf.sscanf_opt s "mmpp:%f" (fun b -> b) with
        | Some b when b >= 1. -> Ok (Sim_system.Mmpp b)
        | Some _ -> Error (`Msg "mmpp burstiness must be >= 1")
        | None ->
          Error (`Msg (Printf.sprintf "unknown arrival process %S" s)))
    in
    let print ppf = function
      | Sim_system.Poisson -> Format.pp_print_string ppf "poisson"
      | Sim_system.Mmpp b -> Format.fprintf ppf "mmpp:%g" b
    in
    let arrival_conv = Arg.conv (parse, print) in
    let doc =
      "Open-loop arrival process: $(b,poisson) or $(b,mmpp:)$(i,B) (bursty \
       two-state MMPP with high/low rate ratio $(i,B), same mean rate)."
    in
    Arg.(
      value & opt arrival_conv Sim_system.Poisson
      & info [ "arrival" ] ~docv:"PROC" ~doc)
  in
  let session_pool =
    let doc =
      "Size of the rotating session-label pool in open-loop mode (0 = \
       min(clients, 4096))."
    in
    Arg.(
      value & opt (int_at_least 0) 0 & info [ "session-pool" ] ~docv:"N" ~doc)
  in
  let fence =
    let parse s =
      match Session.fence_of_string s with
      | Ok f -> Ok f
      | Error msg -> Error (`Msg msg)
    in
    let print ppf f = Format.pp_print_string ppf (Session.fence_to_string f) in
    let fence_conv = Arg.conv (parse, print) in
    let doc =
      "Freshness fence carried by every read-only transaction: \
       $(b,exact:)$(i,TS) (snapshot must include primary commit $(i,TS)), \
       $(b,age:)$(i,D) (snapshot at most $(i,D) virtual seconds stale, \
       resolved against the primary commit clock when the read is \
       submitted), or $(b,session) (exactly the strong-session-SI read \
       floor, whatever the ambient guarantee). Fenced reads block on the \
       site's threshold queue until the refresher catches up; with \
       $(b,--validate) the checker audits every fence claim."
    in
    Arg.(value & opt (some fence_conv) None & info [ "fence" ] ~docv:"FENCE" ~doc)
  in
  let report_file =
    let doc =
      "Attach every observer (metrics, the 1 virtual-second system monitor, \
       the watchdog and the flight recorder) and write the run report as \
       JSON to $(docv). Its flight section is the postmortem bundle: the \
       watchdog's first alert, a violation of the guarantee, triggers the \
       capture mid-run; with $(b,--validate), a failed checker battery \
       triggers it at the end; otherwise it holds the end-of-run event \
       window. Inspect it with $(b,lsrepl replay)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one simulation of the replicated system")
    Term.(
      const simulate $ guarantee_arg $ seed_arg $ workload_term $ serial $ ship
      $ validate $ watchdog $ open_loop $ arrival $ session_pool $ fence
      $ report_file)

(* --- bottleneck ----------------------------------------------------------------- *)

let bottleneck guarantee seed w report_file =
  let params = workload_params w in
  let report =
    if report_file = None then Run_report.null else Run_report.create ()
  in
  Printf.printf "simulating %s: %d secondaries x %d clients, %s mix, %.0fs\n\n%!"
    (Session.guarantee_name guarantee)
    w.w_secondaries w.w_clients (workload_mix w) w.w_duration;
  let o =
    Run_report.run report ~tag:"run" (Sim_system.config params guarantee ~seed)
  in
  print_string (Bottleneck.render (Bottleneck.analyze params o));
  Option.iter
    (fun file ->
      Lsr_obs.Json.write_file ~file (Run_report.to_json report);
      Printf.printf "\nreport written to %s\n" file)
    report_file

let bottleneck_cmd =
  let report_file =
    let doc =
      "Attach every observer (metrics, the 1 virtual-second system monitor, \
       the watchdog and the flight recorder) and write the run report as \
       JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "bottleneck"
       ~doc:"Run one simulation and report where the capacity goes")
    Term.(const bottleneck $ guarantee_arg $ seed_arg $ workload_term $ report_file)

(* --- demo ----------------------------------------------------------------------- *)

let demo guarantee =
  let sys = System.create ~secondaries:2 ~guarantee () in
  Printf.printf "bookstore demo under %s\n\n" (Session.guarantee_name guarantee);
  let alice = System.connect sys "alice" in
  (match
     System.update sys alice (fun h ->
         Handle.put h "order:1" "placed";
         Handle.put h "stock:sicp" "2")
   with
  | Ok () -> print_endline "T_buy committed at the primary"
  | Error _ -> print_endline "T_buy aborted");
  (match System.read_nowait sys alice (fun h -> Handle.get h "order:1") with
  | Some (Some v) -> Printf.printf "T_check (no waiting): order is %s\n" v
  | Some None ->
    print_endline
      "T_check (no waiting): order NOT VISIBLE — transaction inversion"
  | None ->
    print_endline
      "T_check would block: the session guarantee forbids the stale read");
  let v = System.read sys alice (fun h -> Handle.get h "order:1") in
  Printf.printf "T_check (waiting allowed): order is %s\n"
    (Option.value ~default:"<missing>" v);
  System.pump sys;
  match System.check sys with
  | Ok () -> print_endline "\nchecker: guarantee satisfied"
  | Error es ->
    print_endline "\nchecker report:";
    List.iter (fun e -> print_endline ("  " ^ e)) es

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk the paper's bookstore scenario")
    Term.(const demo $ guarantee_arg)

(* --- params ---------------------------------------------------------------------- *)

let params_cmd =
  Cmd.v
    (Cmd.info "params" ~doc:"Print the Table 1 simulation parameters")
    Term.(const (fun () -> Report.print_table1 Params.default) $ const ())

(* --- sql -------------------------------------------------------------------------- *)

(* A line-oriented SQL shell against an embedded replicated system. Each
   line is one statement; lines starting with '\\' are meta commands. Reads
   stdin to EOF, so scripts pipe straight in. *)
let sql guarantee secondaries schema_spec =
  let schema =
    (* "books:price,stock;orders:status" *)
    if schema_spec = "" then []
    else
      String.split_on_char ';' schema_spec
      |> List.filter (fun s -> s <> "")
      |> List.map (fun entry ->
             match String.split_on_char ':' entry with
             | [ table; fields ] ->
               (table, String.split_on_char ',' fields |> List.filter (( <> ) ""))
             | _ -> failwith (Printf.sprintf "bad schema entry %S" entry))
  in
  let sys = System.create ~secondaries ~schema ~guarantee () in
  let client = ref (System.connect sys "shell") in
  Printf.printf
    "lsrepl sql shell — %s, %d secondaries%s\n\
     statements end at end of line; BEGIN/COMMIT/ROLLBACK group a \
     transaction; meta: \\pump \\connect <session> \\check \\quit\n"
    (Session.guarantee_name guarantee)
    secondaries
    (if schema = [] then "" else ", indexed schema loaded");
  let quit = ref false in
  (* BEGIN ... COMMIT buffers statements into one transaction. *)
  let pending : string list option ref = ref None in
  (try
     while not !quit do
       print_string (match !pending with None -> "sql> " | Some _ -> "sql*> ");
       let line = String.trim (read_line ()) in
       let upper = String.uppercase_ascii line in
       if line <> "" then
         if upper = "BEGIN" then begin
           match !pending with
           | Some _ -> print_endline "error: already inside a transaction"
           | None -> pending := Some []
         end
         else if upper = "ROLLBACK" then begin
           pending := None;
           print_endline "transaction discarded"
         end
         else if upper = "COMMIT" then begin
           match !pending with
           | None -> print_endline "error: no transaction in progress"
           | Some stmts -> (
             pending := None;
             match Lsr_sql.Sql.run_script sys !client (List.rev stmts) with
             | Ok results ->
               List.iter
                 (fun r -> print_endline (Lsr_sql.Executor.render r))
                 results
             | Error msg -> print_endline ("error (rolled back): " ^ msg))
         end
         else if !pending <> None then
           pending :=
             Option.map (fun stmts -> line :: stmts) !pending
         else if String.length line > 0 && line.[0] = '\\' then begin
           match String.split_on_char ' ' line with
           | [ "\\quit" ] | [ "\\q" ] -> quit := true
           | [ "\\pump" ] ->
             System.pump sys;
             print_endline "replicas refreshed"
           | [ "\\connect"; label ] ->
             client := System.connect sys label;
             Printf.printf "session %s @ secondary %d\n" label
               (System.client_secondary !client)
           | [ "\\check" ] -> (
             System.pump sys;
             match System.check sys with
             | Ok () -> print_endline "checker: ok"
             | Error es -> List.iter print_endline es)
           | _ -> print_endline "meta commands: \\pump \\connect <s> \\check \\quit"
         end
         else
           match Lsr_sql.Sql.run sys !client line with
           | Ok result -> print_endline (Lsr_sql.Executor.render result)
           | Error msg -> print_endline ("error: " ^ msg)
     done
   with End_of_file -> ());
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es ->
    print_endline "final checker report:";
    List.iter print_endline es

let sql_cmd =
  let secondaries = secondaries_arg ~default:2 in
  let schema =
    let doc = "Secondary indexes, e.g. \"books:price,stock;orders:status\"." in
    Arg.(value & opt string "" & info [ "schema" ] ~doc)
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Interactive SQL shell on a replicated system")
    Term.(const sql $ guarantee_arg $ secondaries $ schema)

(* --- analyze --------------------------------------------------------------------- *)

let analyze guarantee workload_names json_file allowlist_file plan =
  let all = Lsr_analysis.Builtin.workloads () in
  let selected =
    match workload_names with
    | [] -> all
    | names ->
      List.map
        (fun name ->
          match Lsr_analysis.Builtin.find name with
          | Some ts -> (name, ts)
          | None ->
            failwith
              (Printf.sprintf "unknown workload %S (have: %s)" name
                 (String.concat ", " (List.map fst all))))
        names
  in
  let reports =
    List.map
      (fun (name, templates) ->
        Lsr_analysis.Analyzer.run ~guarantee ~workload:name templates)
      selected
  in
  let plans =
    if not plan then []
    else
      List.map
        (fun (name, templates) ->
          Lsr_analysis.Plan.infer ~workload:name templates)
        selected
  in
  if plan then
    List.iteri
      (fun i p ->
        if i > 0 then print_newline ();
        print_string (Lsr_analysis.Plan.render p))
      plans
  else
    List.iteri
      (fun i r ->
        if i > 0 then print_newline ();
        print_string (Lsr_analysis.Analyzer.render r))
      reports;
  (match json_file with
  | None -> ()
  | Some file ->
    let json =
      if plan then Lsr_obs.Json.Arr (List.map Lsr_analysis.Plan.to_json plans)
      else Lsr_obs.Json.Arr (List.map Lsr_analysis.Analyzer.to_json reports)
    in
    Lsr_obs.Json.write_file ~file json;
    Printf.printf "\nreport written to %s\n" file);
  match allowlist_file with
  | None -> ()
  | Some file ->
    let allowed =
      In_channel.with_open_text file In_channel.input_lines
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
    in
    let ids = List.concat_map Lsr_analysis.Analyzer.dangerous_ids reports in
    let unexplained = List.filter (fun id -> not (List.mem id allowed)) ids in
    let stale = List.filter (fun id -> not (List.mem id ids)) allowed in
    List.iter
      (fun id -> Printf.printf "note: allowlist entry %s no longer reported\n" id)
      stale;
    if unexplained = [] then
      Printf.printf "\nallowlist: all %d dangerous structure(s) explained\n"
        (List.length ids)
    else begin
      print_newline ();
      List.iter
        (fun id -> Printf.printf "UNEXPLAINED dangerous structure: %s\n" id)
        unexplained;
      Printf.printf
        "%d dangerous structure(s) not covered by %s — review the report \
         above and either fix the workload or allowlist them\n"
        (List.length unexplained) file;
      exit 1
    end

let analyze_cmd =
  let guarantee =
    (* The analysis baseline is plain weak SI — the point is to show which
       flags a stronger guarantee would prevent. *)
    let doc = "Guarantee to judge session flags against (default weak)." in
    Arg.(value & opt guarantee_conv Session.Weak & info [ "guarantee"; "g" ] ~doc)
  in
  let workloads =
    let doc =
      "Built-in workloads to analyze (default: all). Known: tpcw, \
       write_skew, disjoint, txn_gen, fence_mix."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  let allowlist_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "File of known-benign dangerous-structure ids (one per line, # \
             comments). Exit 1 if the analysis reports any id not listed.")
  in
  let plan =
    let doc =
      "Emit the workload plan instead of the raw analysis: minimal \
       per-template guarantee/fence assignment."
    in
    Arg.(value & flag & info [ "plan" ] ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically analyze template workloads for SI anomalies")
    Term.(
      const analyze $ guarantee $ workloads $ json_file $ allowlist_file $ plan)

(* --- trace ----------------------------------------------------------------------- *)

let trace guarantee seed steps txn_id =
  let flight = Lsr_obs.Flight.create () in
  let sys = System.create ~secondaries:2 ~guarantee ~flight () in
  let clients = Array.init 3 (fun i -> System.connect sys (Printf.sprintf "c%d" i)) in
  let rng = Lsr_sim.Rng.create seed in
  for _ = 1 to steps do
    let c = clients.(Lsr_sim.Rng.uniform rng ~lo:0 ~hi:2) in
    let key = Printf.sprintf "k%d" (Lsr_sim.Rng.uniform rng ~lo:0 ~hi:5) in
    match Lsr_sim.Rng.uniform rng ~lo:0 ~hi:3 with
    | 0 ->
      ignore
        (System.update sys c (fun h ->
             Handle.put h key (string_of_int (Lsr_sim.Rng.uniform rng ~lo:0 ~hi:99))))
    | 1 | 2 -> ignore (System.read sys c (fun h -> Handle.get h key))
    | _ -> System.pump sys
  done;
  System.pump sys;
  let traced () =
    match Lsr_obs.Flight.txns flight with
    | [] -> "(none this run)"
    | ids -> String.concat ", " (List.map string_of_int ids)
  in
  match txn_id with
  | Some id -> (
    match Lsr_obs.Flight.journey flight ~txn:id with
    | Error (Lsr_obs.Flight.Evicted { dropped }) ->
      Printf.printf
        "error: evicted-transaction: the causal journey of transaction %d \
         has left the flight ring (%d events evicted, capacity %d)\n"
        id dropped
        (Lsr_obs.Flight.capacity flight);
      exit 1
    | Error Lsr_obs.Flight.Unknown ->
      Printf.printf
        "error: unknown-transaction: no causal journey recorded for \
         transaction %d\n\
         traced update transactions: %s\n\
         (only committed update transactions leave a journey; read-only and \
         aborted transactions are never traced)\n"
        id (traced ());
      exit 1
    | Ok events ->
      Printf.printf "causal journey of update transaction %d:\n" id;
      List.iter
        (fun ev -> Format.printf "  %a@." Lsr_obs.Flight.pp_event ev)
        events)
  | None ->
    print_endline "recorded history (completion order):";
    List.iter
      (fun txn -> Format.printf "  %a@." History.pp_txn txn)
      (History.transactions (System.history sys));
    let audit =
      Watchdog.replay ~clock:(System.commit_clock sys) ~guarantee
        (System.history sys)
    in
    let v = Watchdog.verdict audit in
    Printf.printf
      "\nweak-SI violations: %d\ninversions (all): %d\ninversions (in-session): %d\n"
      v.Watchdog.read_mismatches v.Watchdog.v_inversions_all
      v.Watchdog.v_inversions_in_session;
    List.iter
      (fun a -> Format.printf "  %a@." Watchdog.pp_alert a)
      (Watchdog.alerts audit);
    Printf.printf "guarantee %s satisfied: %b\n"
      (Session.guarantee_name guarantee)
      (v.Watchdog.alerts_total = 0);
    Printf.printf
      "\ntraced update transactions: %s\n\
       (rerun as `lsrepl trace <id>` with the same seed to print one \
       transaction's causal journey)\n"
      (traced ())

let trace_cmd =
  let steps =
    Arg.(value & opt int 25 & info [ "steps"; "n" ] ~doc:"Workload steps.")
  in
  let txn_id =
    let doc =
      "Primary transaction id to trace: print that transaction's causal \
       journey (primary commit, shipping, per-site refresh), read from the \
       flight recorder's ring, instead of the full history. Exits 1 when \
       nothing was recorded for the id or its events have left the ring."
    in
    Arg.(value & pos 0 (some int) None & info [] ~docv:"TXN-ID" ~doc)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a random workload and dump the checked history")
    Term.(const trace $ guarantee_arg $ seed_arg $ steps $ txn_id)

(* --- replay ---------------------------------------------------------------------- *)

(* Time-travel debugging over the postmortem bundle of a one-run report:
   the default view prints the capture header and the witness interleaving
   of the implicated transactions; --seek/--txn/--at reconstruct the window
   at any instant; --diff audits two bundles for determinism. Everything
   here is a pure function of the report files, so outputs golden cleanly. *)

(* A report file, read as its one run's flight section. A report of several
   runs is a usage error naming their tags. *)
let report_flight_conv =
  let module Json = Lsr_obs.Json in
  let ( let* ) = Result.bind in
  let parse file =
    let* text =
      try Ok (In_channel.with_open_bin file In_channel.input_all)
      with Sys_error e -> Error e
    in
    let* json = Json.parse text in
    let* run =
      match Json.member "runs" json with
      | Some (Json.Arr [ run ]) -> Ok run
      | Some (Json.Arr runs) ->
        let tag run =
          match Json.member "tag" run with Some (Json.Str t) -> t | _ -> "?"
        in
        Error
          (Printf.sprintf "%s holds %d runs (%s); replay reads a one-run report"
             file (List.length runs)
             (String.concat ", " (List.map tag runs)))
      | _ -> Error (file ^ " is not a run report")
    in
    match Json.member "flight" run with
    | Some (Json.Obj _ as bundle) -> Lsr_obs.Flight.parse_bundle bundle
    | _ -> Error (file ^ ": the run has no flight recorder section")
  in
  let parse file = Result.map_error (fun e -> `Msg e) (parse file) in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<report>")

let replay b other seek txn at limit =
  let open Lsr_obs.Flight in
  let print_events ?(label_omitted = "earlier") evs =
    let total = List.length evs in
    let evs =
      if limit > 0 && total > limit then begin
        Printf.printf "  (... %d %s events omitted; raise --limit to see them)\n"
          (total - limit) label_omitted;
        List.filteri (fun i _ -> i >= total - limit) evs
      end
      else evs
    in
    List.iter (fun e -> Format.printf "  %a@." pp_event e) evs
  in
  match other with
  | Some other ->
    (match diff b other with
    | None ->
      Printf.printf
        "no divergence: both bundles retain the same %d-event window\n"
        (Array.length b.window)
    | Some (i, ea, eb) ->
      Printf.printf "FIRST DIVERGENCE at window index %d:\n" i;
      let side tag = function
        | Some e -> Format.printf "  %s: %a@." tag pp_event e
        | None -> Printf.printf "  %s: <window ended>\n" tag
      in
      side "A" ea;
      side "B" eb;
      exit 1)
  | None -> (
    match (at, seek, txn) with
    | Some vt, _, _ ->
      Printf.printf "visible snapshot horizons at vt=%.6f:\n" vt;
      List.iter
        (fun (site, h) ->
          if h < 0 then Printf.printf "  %-16s (unknown before the window)\n" site
          else Printf.printf "  %-16s %d\n" site h)
        (horizons_at b ~vt)
    | None, Some vt, _ ->
      Printf.printf "window events up to vt=%.6f:\n" vt;
      print_events (events_until b ~vt)
    | None, None, Some id ->
      Printf.printf "window events touching transaction %d:\n" id;
      print_events (txn_events b ~id)
    | None, None, None ->
      Printf.printf "flight bundle v%d — trigger: %s%s\n" b.version b.reason
        (if b.detail = "" then "" else "\n  " ^ b.detail);
      Printf.printf
        "captured at vt=%.6f: %d-event window, %d earlier events evicted, %d \
         primary commits over the run\n"
        b.at (Array.length b.window) b.dropped b.commits;
      Printf.printf "implicated transactions: %s\n"
        (match b.implicated with
        | [] -> "(none)"
        | ids -> String.concat ", " (List.map string_of_int ids));
      print_endline "visibility horizons at capture:";
      List.iter (fun (site, h) -> Printf.printf "  %-16s %d\n" site h) b.horizons;
      (match witness_events b with
      | [] ->
        print_endline "event window (oldest first):";
        print_events (Array.to_list b.window)
      | evs ->
        print_endline
          "witness interleaving of the implicated transactions (oldest first):";
        print_events evs))

let replay_cmd =
  let report =
    let doc =
      "A one-run report written by $(b,simulate --report), $(b,bottleneck \
       --report) or the bench's $(b,--report); replay reads its flight \
       section."
    in
    Arg.(
      required & pos 0 (some report_flight_conv) None
      & info [] ~docv:"REPORT" ~doc)
  in
  let other =
    let doc =
      "Determinism audit: compare $(i,REPORT)'s flight window against \
       $(docv)'s and report the first divergence (exit 1), or that none \
       exists. Two reports from the same seed must not diverge."
    in
    Arg.(
      value & opt (some report_flight_conv) None
      & info [ "diff" ] ~docv:"OTHER" ~doc)
  in
  let seek =
    let doc = "Print the window events up to virtual time $(docv)." in
    Arg.(value & opt (some float) None & info [ "seek" ] ~docv:"VT" ~doc)
  in
  let txn =
    let doc =
      "Print the window events touching transaction $(docv) (matched as \
       MVCC id or history id)."
    in
    Arg.(value & opt (some int) None & info [ "txn" ] ~docv:"ID" ~doc)
  in
  let at =
    let doc =
      "Print each site's visible snapshot horizon at virtual time $(docv), \
       reconstructed from the window (takes precedence over \
       --seek/--txn)."
    in
    Arg.(value & opt (some float) None & info [ "at" ] ~docv:"VT" ~doc)
  in
  let limit =
    let doc = "Print at most the last $(docv) events per listing (0 = all)." in
    Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Time-travel through a run report's flight recorder postmortem")
    Term.(const replay $ report $ other $ seek $ txn $ at $ limit)

let () =
  let info =
    Cmd.info "lsrepl"
      ~doc:"lazy database replication with snapshot isolation (VLDB 2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd; bottleneck_cmd; demo_cmd; params_cmd; trace_cmd;
            sql_cmd; analyze_cmd; replay_cmd;
          ]))
