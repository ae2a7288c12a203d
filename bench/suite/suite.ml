(* The parent side: runs every rep in a fresh child process (this executable
   re-executed with [rep]), gathers the samples, applies the correctness
   gate, and prints the result. Only one child runs at a time. *)

module Json = Lsr_obs.Json
module W = Workloads

type options = {
  spec : Spec.t;
  workloads : W.t list;
  seed : int;
  scale : W.scale;
  min_reps : int;
  seconds : float;  (** keep adding reps until this much timed wall time *)
  out : string;  (** directory for child results and trace files *)
}

(* --- Children ---------------------------------------------------------------- *)

type child = {
  metrics : (string * float) list;
  txns : int;
  errors : string list;
  digest : string;
  model_digest : string;
  chrome : Json.t list;
  spans : Json.t;  (** per span name: count, total and self time *)
  window : int64 * int64;
  wall_s : float;
}

let counter = ref 0

(* GC pauses of a traced child, read from its runtime-events ring while it
   runs: (start, duration) in ns on the monotonic clock, plus the count of
   events the ring overwrote before they were read. Runtime phases nest; a
   pause runs from an outermost begin to its matching end (a single-domain
   program stops while the runtime works). *)
let poll_pauses dir pid =
  let depth = ref 0 and start = ref 0L in
  let pauses = ref [] and lost = ref 0 in
  let ts t = Runtime_events.Timestamp.to_int64 t in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t _ ->
        if !depth = 0 then start := ts t;
        incr depth)
      ~runtime_end:(fun _ t _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then pauses := (!start, Int64.sub (ts t) !start) :: !pauses
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let file = Filename.concat dir (string_of_int pid ^ ".events") in
  let cursor = ref None in
  let poll () =
    (if !cursor = None && Sys.file_exists file then
       try cursor := Some (Runtime_events.create_cursor (Some (dir, pid)))
       with Failure _ -> ());
    Option.iter (fun c -> ignore (Runtime_events.read_poll c callbacks None)) !cursor
  in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      poll ();
      Unix.sleepf 0.005;
      wait ()
    | _, status -> status
  in
  let status = wait () in
  poll ();
  Option.iter Runtime_events.free_cursor !cursor;
  (try Sys.remove file with Sys_error _ -> ());
  (status, (!pauses, !lost))

(* Total and longest pause inside the child's timed section, in ms. *)
let pauses_in (lo, hi) pauses =
  List.fold_left
    (fun (total, longest) (start, d) ->
      if start >= lo && start <= hi then
        let ms = Int64.to_float d /. 1e6 in
        (total +. ms, Float.max longest ms)
      else (total, longest))
    (0., 0.) pauses

let num_field j k =
  match Json.member k j with Some (Json.Num f) -> f | _ -> nan

let str_field j k = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

let parse_child file ~wall_s =
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  match Json.parse text with
  | Error e -> Error ("unreadable rep result: " ^ e)
  | Ok j ->
    let metrics =
      match Json.member "metrics" j with
      | Some (Json.Obj kv) ->
        List.map (fun (k, v) -> (k, match v with Json.Num f -> f | _ -> nan)) kv
      | _ -> []
    in
    let list k = match Json.member k j with Some (Json.Arr l) -> l | _ -> [] in
    Ok
      {
        metrics;
        txns = int_of_float (num_field j "txns");
        errors =
          List.filter_map (function Json.Str s -> Some s | _ -> None) (list "errors");
        digest = str_field j "digest";
        model_digest = str_field j "model_digest";
        chrome = list "chrome";
        spans = Option.value ~default:(Json.Obj []) (Json.member "spans" j);
        window =
          (match list "window_ns" with
          | [ Json.Str a; Json.Str b ] -> (Int64.of_string a, Int64.of_string b)
          | _ -> (0L, 0L));
        wall_s;
      }

(* Runs this executable as a child with [args] plus a result file, and
   returns the result it wrote; with [traced] its GC pauses are polled from
   here while it runs. *)
let spawn o ~args ~traced =
  incr counter;
  let result = Filename.concat o.out (Printf.sprintf "rep-%d.json" !counter) in
  let argv = (Sys.executable_name :: args) @ [ "--result"; result ] in
  let env =
    if traced then
      Array.append
        [| "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ o.out;
           "OCAML_RUNTIME_EVENTS_PRESERVE=1" |]
        (Unix.environment ())
    else Unix.environment ()
  in
  let t0 = Unix.gettimeofday () in
  (* The child's stdout goes to our stderr: only the parent prints results. *)
  let pid =
    Unix.create_process_env Sys.executable_name (Array.of_list argv) env Unix.stdin
      Unix.stderr Unix.stderr
  in
  let status, pauses =
    if traced then
      let s, p = poll_pauses o.out pid in
      (s, Some p)
    else (snd (Unix.waitpid [] pid), None)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let child =
    match status with
    | Unix.WEXITED 0 -> parse_child result ~wall_s
    | Unix.WEXITED n -> Error (Printf.sprintf "rep exited with code %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "rep killed by signal %d" n)
  in
  (child, pauses)

let run_child o (w : W.t) ~variant ~traced =
  spawn o ~traced
    ~args:
      ([ "rep"; "--workload"; w.name; "--seed"; string_of_int o.seed; "--variant";
         fst (List.find (fun (_, v) -> v = variant) W.variants) ]
      @ (if traced then [ "--traced" ] else [])
      @ if o.scale = W.Smoke then [ "--smoke" ] else [])

(* --- Host speed -------------------------------------------------------------- *)

let last_reference = ref None

let reference o =
  match spawn o ~args:[ "reference" ] ~traced:false with
  | Ok c, _ -> List.assoc "reference_s" c.metrics
  | Error e, _ -> failwith ("reference kernel: " ^ e)

(* [bracketed o f] runs [f] between two reference-kernel children and
   returns its result with the host speed over that interval: the kernel's
   nominal time over the mean of the two measurements (below 1 while other
   tenants slow the host). Smoke runs check the schema, not speed, and
   skip the kernel. *)
let bracketed o f =
  if o.scale = W.Smoke then (f (), 1.)
  else begin
    let before =
      match !last_reference with Some r -> r | None -> reference o
    in
    let r = f () in
    let after = reference o in
    last_reference := Some after;
    (r, W.reference_nominal_s /. ((before +. after) /. 2.))
  end

let unit_of o name =
  match
    List.find_opt (fun m -> m.Spec.name = name) (o.spec.Spec.end_to_end @ o.spec.Spec.per_layer)
  with
  | Some m -> m.Spec.unit_
  | None -> if name = "cpu_s" then "s" else ""

(* Host times at reference speed: a time measured while the host ran at
   [speed] shrinks by that factor and a rate grows by it; counts, sizes and
   fractions stay as they are. *)
let at_reference_speed o speed (k, v) =
  match unit_of o k with
  | "1/s" -> (k, v /. speed)
  | "s" | "ms" | "us" | "ns" -> (k, v *. speed)
  | _ -> (k, v)

(* --- Untraced reps ----------------------------------------------------------- *)

type acc = {
  w : W.t;
  samples : (string, float list) Hashtbl.t;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable digests : string list;
  mutable model_digests : string list;
  mutable timed_s : float;
  mutable reps : int;
}

let acc w =
  { w; samples = Hashtbl.create 16; attempted = 0; failed = 0; errors = [];
    digests = []; model_digests = []; timed_s = 0.; reps = 0 }

let add_sample a k v =
  Hashtbl.replace a.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt a.samples k))

let values a k = List.rev (Option.value ~default:[] (Hashtbl.find_opt a.samples k))

let note_failure a ~txns errs =
  a.attempted <- a.attempted + max 1 txns;
  a.failed <- a.failed + max 1 txns;
  a.errors <- a.errors @ List.map (fun e -> a.w.name ^ ": " ^ e) errs

(* Names sampled across reps: the end-to-end metrics, the embedded
   workload's host latencies and check time, the rep's CPU time and the
   host speed it ran at. *)
let sampled =
  [ "txns_per_s"; "setup_s"; "peak_rss_mb"; "cpu_s"; "host_speed";
    "core.system.update_p50_us"; "core.system.update_p99_us";
    "core.system.read_p50_us"; "core.system.read_p99_us"; "core.checker.verify_s" ]

let one_rep o a =
  let (setup, timed), speed =
    bracketed o (fun () ->
        let setup =
          match a.w.kind with
          | W.Simulated _ -> Some (run_child o a.w ~variant:W.Setup ~traced:false)
          | W.Embedded -> None
        in
        (setup, run_child o a.w ~variant:W.Timed ~traced:false))
  in
  let keep c =
    List.iter
      (fun m ->
        let k, v = at_reference_speed o speed m in
        if List.mem k sampled then add_sample a k v)
      c.metrics
  in
  (match setup with
  | Some (Ok c, _) when c.errors = [] -> keep c
  | Some (Ok c, _) -> note_failure a ~txns:0 c.errors
  | Some (Error e, _) -> note_failure a ~txns:0 [ e ]
  | None -> ());
  (match timed with
  | Ok c, _ ->
    a.timed_s <- a.timed_s +. c.wall_s;
    if c.errors <> [] then note_failure a ~txns:c.txns c.errors
    else begin
      a.attempted <- a.attempted + c.txns;
      keep c;
      add_sample a "host_speed" speed;
      a.digests <- c.digest :: a.digests;
      a.model_digests <- c.model_digest :: a.model_digests
    end
  | Error e, _ -> note_failure a ~txns:0 [ e ]);
  a.reps <- a.reps + 1

(* Round-robin over workloads, so a burst of co-tenant load spreads over all
   of them, until each has [min_reps] reps and [seconds] of timed wall time.
   A workload whose reps fail stops early. *)
let run_reps o =
  let accs = List.map acc o.workloads in
  let wanted a =
    a.failed = 0 && a.reps < 200 && (a.reps < o.min_reps || a.timed_s < o.seconds)
  in
  let rec loop () =
    match List.filter wanted accs with
    | [] -> ()
    | pending ->
      List.iter (one_rep o) pending;
      loop ()
  in
  loop ();
  List.iter
    (fun a ->
      let uniq l = List.sort_uniq compare l in
      if List.length (uniq a.digests) > 1 then
        note_failure a ~txns:0 [ "digest differs across reps of one seed" ];
      if List.length (uniq a.model_digests) > 1 then
        note_failure a ~txns:0 [ "model statistics differ across reps" ])
    accs;
  accs

(* --- Traced rep -------------------------------------------------------------- *)

let has_observer (w : W.t) pick =
  match w.kind with
  | W.Simulated { config; _ } -> pick (config W.Smoke ~seed:0)
  | W.Embedded -> false

(* CPU share of one observer: the untraced reps' CPU against one rep with
   that observer detached (same seed, same simulated trajectory), both at
   reference speed. *)
let cpu_frac o a ~variant ~present =
  if not present then 0.
  else
    match bracketed o (fun () -> run_child o a.w ~variant ~traced:false) with
    | (Ok c, _), speed ->
      let full = Stats.median (values a "cpu_s") in
      (full -. (List.assoc "cpu_s" c.metrics *. speed)) /. full
    | (Error e, _), _ ->
      note_failure a ~txns:0 [ e ];
      nan

let traced_rep o a =
  let wdog = cpu_frac o a ~variant:W.No_watchdog
      ~present:(has_observer a.w (fun c -> c.Lsr_experiments.Sim_system.watchdog))
  in
  let flight = cpu_frac o a ~variant:W.No_flight
      ~present:
        (has_observer a.w (fun c ->
             Lsr_obs.Flight.enabled c.Lsr_experiments.Sim_system.flight))
  in
  match bracketed o (fun () -> run_child o a.w ~variant:W.Timed ~traced:true) with
  | (Error e, _), _ ->
    note_failure a ~txns:0 [ e ];
    ([], [], Json.Obj [])
  | (Ok c, pauses), speed ->
    a.attempted <- a.attempted + c.txns;
    if c.errors <> [] then note_failure a ~txns:c.txns c.errors;
    if a.model_digests <> [] && c.model_digest <> List.hd a.model_digests then
      note_failure a ~txns:0 [ "tracing changed the simulated statistics" ];
    let pauses, lost = Option.value ~default:([], 0) pauses in
    let pause_total, pause_max = pauses_in c.window pauses in
    let untraced = Stats.median (values a "txns_per_s") in
    let traced = List.assoc "txns_per_s" c.metrics /. speed in
    let layers =
      List.map (at_reference_speed o speed)
        (List.filter
           (fun (k, _) -> not (List.mem k [ "txns_per_s"; "setup_s"; "peak_rss_mb"; "cpu_s" ]))
           c.metrics
        @ [ ("gc.pause_ms_total", pause_total); ("gc.pause_ms_max", pause_max) ])
      @ [
          ("trace.overhead_frac", (untraced /. traced) -. 1.);
          ("host.speed", speed);
          ("core.watchdog.cpu_frac", wdog);
          ("obs.flight.cpu_frac", flight);
          ("gc.lost_events", float_of_int lost);
        ]
    in
    (layers, c.chrome, c.spans)

(* --- Output ------------------------------------------------------------------ *)

let num f = Json.Num f

let summary_json o accs =
  let workload a =
    let metric k =
      let v = values a k in
      ( k,
        Json.Obj
          [ ("unit", Json.Str (unit_of o k)); ("values", Json.Arr (List.map num v));
            ("median", num (Stats.median v)); ("min", num (Stats.minimum v));
            ("max", num (Stats.maximum v));
            ("n", num (float_of_int (List.length v))) ] )
    in
    ( a.w.name,
      Json.Obj
        [
          ("attempted", num (float_of_int a.attempted));
          ("failed", num (float_of_int a.failed));
          ("digest", Json.Str (match a.digests with d :: _ -> d | [] -> ""));
          ( "model_digest",
            Json.Str (match a.model_digests with d :: _ -> d | [] -> "") );
          ( "metrics",
            Json.Obj (List.map metric (List.filter (fun k -> values a k <> []) sampled)) );
        ] )
  in
  Json.Obj
    [
      ("seed", num (float_of_int o.seed));
      ("scale", Json.Str (match o.scale with W.Full -> "full" | W.Smoke -> "smoke"));
      ("workloads", Json.Obj (List.map workload accs));
    ]

let print_samples o a =
  Printf.printf "\n%s: %d reps, %d txns attempted, %d failed\n" a.w.name a.reps
    a.attempted a.failed;
  Printf.printf "  %-28s %-6s %14s %14s %14s %3s %8s\n" "metric" "unit" "median" "min"
    "max" "n" "spread";
  List.iter
    (fun k ->
      match values a k with
      | [] -> ()
      | v ->
        Printf.printf "  %-28s %-6s %14.6g %14.6g %14.6g %3d %7.2f%%\n" k (unit_of o k)
          (Stats.median v) (Stats.minimum v) (Stats.maximum v) (List.length v)
          (100. *. Stats.spread v))
    sampled

let write_json file j =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The last line of standard output: one JSON object with exactly the keys
   [correct], [attempted], [failed] and [metrics]. With several workloads
   the metric names carry a "<workload>/" prefix. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric (name, unit_, v) =
    (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit_) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", num (float_of_int (max 1 attempted)));
            ("failed", num (float_of_int failed));
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

let end_to_end_of a =
  List.filter_map
    (fun k -> match values a k with [] -> None | v -> Some (k, Stats.median v))
    [ "txns_per_s"; "setup_s"; "peak_rss_mb" ]

(* [run o ~traced ~json] measures every selected workload and prints the
   result. Exit code: 0 when every correctness gate passed and the reported
   metrics match BENCHMARK.json, 1 on a failed gate, 3 on a metric
   mismatch. *)
let run o ~traced ~json =
  mkdir_p o.out;
  let accs = run_reps o in
  List.iter (print_samples o) accs;
  let reported, traces =
    if not traced then (List.map (fun a -> (a, end_to_end_of a)) accs, [])
    else begin
      let per =
        List.map
          (fun a ->
            let layers, chrome, spans = traced_rep o a in
            ((a, layers), (chrome, spans)))
          accs
      in
      (List.map fst per, List.map snd per)
    end
  in
  let promised = if traced then o.spec.Spec.per_layer else o.spec.Spec.end_to_end in
  let mismatches =
    (if List.sort compare o.spec.Spec.workloads
        = List.sort compare (List.map (fun (w : W.t) -> w.name) W.all)
     then []
     else [ "the workloads differ from BENCHMARK.json's" ])
    @ List.concat_map
        (fun (a, ms) -> List.map (fun e -> a.w.name ^ ": " ^ e) (Spec.check promised ms))
        reported
  in
  if traced then begin
    List.iter
      (fun (a, ms) ->
        Printf.printf "\n%s (traced rep)\n" a.w.name;
        List.iter
          (fun (k, v) -> Printf.printf "  %-36s %-6s %16.6g\n" k (unit_of o k) v)
          (List.sort compare ms))
      reported;
    write_json
      (Filename.concat o.out "trace.json")
      (Json.Obj
         [
           ("traceEvents", Json.Arr (List.concat_map fst traces));
           ("displayTimeUnit", Json.Str "ms");
         ]);
    write_json
      (Filename.concat o.out "layers.json")
      (Json.Obj
         [
           ("seed", num (float_of_int o.seed));
           ( "workloads",
             Json.Obj
               (List.map
                  (fun ((a, ms), (_, spans)) ->
                    ( a.w.name,
                      Json.Obj
                        [
                          ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) ms));
                          ("spans", spans);
                        ] ))
                  (List.combine reported traces)) );
         ]);
    Printf.printf "\nwrote %s and %s\n" (Filename.concat o.out "trace.json")
      (Filename.concat o.out "layers.json")
  end;
  Option.iter (fun file -> write_json file (summary_json o accs)) json;
  let errors = List.concat_map (fun a -> a.errors) accs in
  List.iter (fun e -> Printf.eprintf "lsrbench: %s\n" e) (errors @ mismatches);
  let correct = errors = [] in
  let attempted = List.fold_left (fun n a -> n + a.attempted) 0 accs in
  let failed = List.fold_left (fun n a -> n + a.failed) 0 accs in
  let prefixed = match reported with [ _ ] -> false | _ -> true in
  result_line ~correct ~attempted ~failed
    (List.concat_map
       (fun (a, ms) ->
         List.map
           (fun (k, v) ->
             ((if prefixed then a.w.name ^ "/" ^ k else k), unit_of o k, v))
           ms)
       reported);
  if not correct then 1 else if mismatches <> [] then 3 else 0
