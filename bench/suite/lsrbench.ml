(* lsrbench: the repository benchmark. See README.md in this directory. *)

open Cmdliner
module W = Workloads

let workload_arg =
  let doc = "Workload to run (repeatable); all four when omitted." in
  Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Workload seed. 20060912 is the baseline seed; 7 is held out for claims." in
  Arg.(value & opt int 20060912 & info [ "seed" ] ~doc)

let reps_arg =
  let doc = "Minimum untraced reps per workload." in
  Arg.(value & opt int 3 & info [ "reps" ] ~doc)

let seconds_arg =
  let doc =
    "Keep adding reps until each workload has spent this many seconds of wall \
     time in its timed reps."
  in
  Arg.(value & opt float 0. & info [ "seconds" ] ~doc)

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny sizes: every rep under a second.")

let out_arg =
  let doc = "Directory for rep results, trace.json and layers.json." in
  Arg.(value & opt string ".lsrbench" & info [ "out" ] ~docv:"DIR" ~doc)

let benchmark_arg =
  let doc = "The benchmark definition the output is validated against." in
  Arg.(value & opt file "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Write every sample to $(docv), the input of $(b,compare)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let measure names seed reps seconds smoke out benchmark json traced =
  match
    List.partition_map
      (fun n -> match W.find n with Some w -> Left w | None -> Right n)
      names
  with
  | _, (_ :: _ as unknown) ->
    Printf.eprintf "lsrbench: unknown workload %s\n" (String.concat ", " unknown);
    2
  | chosen, [] ->
    let o =
      {
        Suite.spec = Spec.load benchmark;
        workloads = (if chosen = [] then W.all else chosen);
        seed;
        scale = (if smoke then W.Smoke else W.Full);
        min_reps = max 1 reps;
        seconds;
        out;
      }
    in
    Suite.run o ~traced ~json

let run_cmd =
  let trace_arg =
    let doc = "1: one extra traced rep per workload reporting the per-layer metrics." in
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc)
  in
  let doc = "Measure the end-to-end metrics (or, with --trace 1, the per-layer ones)." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun n s r sec sm o b j t -> measure n s r sec sm o b j (t <> 0))
      $ workload_arg $ seed_arg $ reps_arg $ seconds_arg $ smoke_arg $ out_arg
      $ benchmark_arg $ json_arg $ trace_arg)

let trace_cmd =
  let doc = "Untraced reps, then one traced rep per workload: trace.json and layers.json." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const (fun n s r sec sm o b j -> measure n s r sec sm o b j true)
      $ workload_arg $ seed_arg $ reps_arg $ seconds_arg $ smoke_arg $ out_arg
      $ benchmark_arg $ json_arg)

let compare_cmd =
  let file i name = Arg.(required & pos i (some string) None & info [] ~docv:name) in
  let doc =
    "Judge B against A, metric by metric. A and B are summaries written by run \
     --json; several invocations of one side as a comma-separated list."
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const (fun b a c -> Compare.run (Spec.load b) a c)
      $ benchmark_arg $ file 0 "A" $ file 1 "B")

(* One rep in this process; the parent re-executes itself with [rep]. *)
let rep_cmd =
  let rep name seed variant traced smoke result =
    match W.find name with
    | None -> 2
    | Some w ->
      if traced then Span.enable ();
      let scale = if smoke then W.Smoke else W.Full in
      let r = W.run w scale ~seed ~variant ~traced in
      let spans = Span.recorded () in
      let metrics, extra =
        if not traced then (r.W.metrics, [])
        else begin
          let pid = 1 + Option.get (List.find_index (( == ) w) W.all) in
          let origin_ns =
            List.fold_left (fun m s -> Int64.min m s.Span.start_ns) Int64.max_int spans
          in
          (* Every span outside the transaction loop, and the loop's spans
             for its first 5000 transactions only: the file stays small. *)
          let kept = List.filter (fun s -> s.Span.trace < 5000) spans in
          ( r.W.metrics @ [ ("trace.spans", float_of_int (List.length spans)) ],
            [ ("chrome", Lsr_obs.Json.Arr (Span.chrome_events ~pid ~origin_ns kept));
              ("spans", Span.totals_json spans) ] )
        end
      in
      Suite.write_json result (W.result_json { r with W.metrics } ~extra);
      0
  in
  Cmd.v
    (Cmd.info "rep" ~doc:"Internal: one rep in this process, result written to --result.")
    Term.(
      const rep
      $ Arg.(required & opt (some string) None & info [ "workload" ])
      $ seed_arg
      $ Arg.(value & opt (enum W.variants) W.Timed & info [ "variant" ])
      $ Arg.(value & flag & info [ "traced" ])
      $ smoke_arg
      $ Arg.(required & opt (some string) None & info [ "result" ]))

(* The host-speed reference kernel in this process (see [Workloads]). *)
let reference_cmd =
  let reference result =
    Suite.write_json result
      (Lsr_obs.Json.Obj
         [ ("metrics",
            Lsr_obs.Json.Obj [ ("reference_s", Lsr_obs.Json.Num (W.reference_kernel ())) ]) ]);
    0
  in
  Cmd.v
    (Cmd.info "reference" ~doc:"Internal: time the host-speed reference kernel.")
    Term.(const reference $ Arg.(required & opt (some string) None & info [ "result" ]))

let () =
  let doc = "Benchmark of the lazy-master replicated system: simulator and embedded library." in
  exit (Cmd.eval' (Cmd.group (Cmd.info "lsrbench" ~doc) [ run_cmd; trace_cmd; compare_cmd; rep_cmd; reference_cmd ]))
