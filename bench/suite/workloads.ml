(* The four benchmark workloads and the body of one repetition ("rep"),
   which always runs in a fresh child process (see [Suite]). Everything here
   calls only public functions of the library. *)

open Lsr_sim
open Lsr_storage
open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system
module Monitor = Lsr_experiments.Monitor
module Json = Lsr_obs.Json

type scale = Full | Smoke

(* What a child measures: the workload itself, its set-up alone, or the
   workload with one observer detached (to price that observer). *)
type variant = Timed | Setup | No_watchdog | No_flight

let variants =
  [ ("timed", Timed); ("setup", Setup); ("no-watchdog", No_watchdog);
    ("no-flight", No_flight) ]

(* --- Simulated workloads ----------------------------------------------------

   All three run [Sim_system] with a tiny per-operation service time, so the
   sites stay far from saturation and the rep measures the simulator, not
   the paper's contention curves. They are open or closed loops in virtual
   time: the generator is never late by construction. *)

let sim_params ~clients ~think_time ~propagation ~warmup ~duration =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = clients;
    think_time;
    op_service_time = 1e-6;
    propagation_delay = propagation;
    warmup;
    duration;
  }

let open_weak scale ~seed =
  let clients, warmup, duration =
    match scale with Full -> (1_000_000, 0.5, 2.5) | Smoke -> (20_000, 0.1, 0.5)
  in
  (* Think time grows with the population so the offered load stays near
     28.6k txn/s/site at a million modeled clients. *)
  let think_time =
    Params.default.Params.think_time
    *. Float.max 1. (float_of_int clients /. 200_000.)
  in
  {
    (Sim.config
       (sim_params ~clients ~think_time ~propagation:1.0 ~warmup ~duration)
       Session.Weak ~seed)
    with
    Sim.client_mode =
      Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool = 0 };
  }

let closed_session scale ~seed =
  let clients, warmup, duration =
    match scale with Full -> (100_000, 0.5, 2.0) | Smoke -> (5_000, 0.1, 0.5)
  in
  Sim.config
    (sim_params ~clients ~think_time:Params.default.Params.think_time
       ~propagation:1.0 ~warmup ~duration)
    Session.Strong_session ~seed

let verified_session scale ~seed =
  let clients, warmup, duration =
    match scale with Full -> (500_000, 0.25, 1.0) | Smoke -> (20_000, 0.1, 0.5)
  in
  let params =
    {
      (sim_params ~clients ~think_time:Params.default.Params.think_time
         ~propagation:0.5 ~warmup ~duration)
      with
      Params.tran_size_min = 2;
      tran_size_max = 6;
    }
  in
  {
    (Sim.config params Session.Strong_session ~seed) with
    Sim.client_mode =
      Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool = 4096 };
    watchdog = true;
    flight = Lsr_obs.Flight.create ();
  }

(* --- Embedded workload ------------------------------------------------------ *)

type embedded = {
  keys : int;  (** preloaded keys = the generator's key space *)
  txns : int;
  sessions : int;
  refresh_every : int;  (** propagate + refresh_all every this many txns *)
  compact_every : int;  (** pump + compact every this many txns *)
}

let embedded = function
  | Full ->
    { keys = 100_000; txns = 60_000; sessions = 64; refresh_every = 100;
      compact_every = 20_000 }
  | Smoke ->
    { keys = 10_000; txns = 4_000; sessions = 64; refresh_every = 100;
      compact_every = 2_000 }

let embedded_params e = { Params.default with Params.key_space = e.keys }

type kind =
  | Simulated of {
      config : scale -> seed:int -> Sim.config;
      depth : scale -> int;
          (** events pending in the engine in steady state: the depth the
              engine and process replays run at *)
    }
  | Embedded

type t = { name : string; kind : kind }

let shallow = function Full | Smoke -> 64

let all =
  [
    { name = "open-weak"; kind = Simulated { config = open_weak; depth = shallow } };
    {
      name = "closed-session";
      kind =
        Simulated
          {
            config = closed_session;
            depth = (function Full -> 200_000 | Smoke -> 10_000);
          };
    };
    {
      name = "verified-session";
      kind = Simulated { config = verified_session; depth = shallow };
    };
    { name = "embedded-session"; kind = Embedded };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- Measurement helpers ---------------------------------------------------- *)

(* Resident-set high-water mark of this process (VmHWM), in MB. Each rep is
   its own process, so this is the rep's own peak. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let gc_metrics ~txns (g0 : Gc.stat) (g1 : Gc.stat) =
  let per_txn x = x /. float_of_int (max 1 txns) in
  [
    ("gc.minor_words_per_txn", per_txn (g1.minor_words -. g0.minor_words));
    ( "gc.promoted_words_per_txn",
      per_txn (g1.promoted_words -. g0.promoted_words) );
    ( "gc.minor_collections",
      float_of_int (g1.minor_collections - g0.minor_collections) );
    ( "gc.major_collections",
      float_of_int (g1.major_collections - g0.major_collections) );
    ( "gc.top_heap_mb",
      float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

let ns_since t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0)

(* --- Host speed ---------------------------------------------------------------

   The benchmark host is shared: other tenants' load on the memory system
   slows every rep by the same factor, by up to 1.7x for tens of seconds.
   A fixed reference kernel runs in its own child between reps; the ratio
   of its nominal to its measured CPU time is the host speed of that
   moment, and host times are rescaled by it. The kernel uses only the
   standard library, so no change to the system under test moves it. It
   mixes what the workloads do: string-keyed hashtable inserts, lookups and
   replacements with short-lived lists. *)

(* Its CPU time on the reference host, the 2-vCPU KVM guest of the
   README's baseline: a fixed scale, so reps at host speed 1 report their
   raw times. *)
let reference_nominal_s = 0.37

let reference_kernel () =
  let t0 = Sys.time () in
  let n = 200_000 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Printf.sprintf "k%07d" i) [ i ]
  done;
  let s = ref 1 and acc = ref 0 in
  for _ = 1 to 400_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let k = Printf.sprintf "k%07d" (!s mod n) in
    (match Hashtbl.find_opt h k with
    | Some l -> acc := !acc + List.length l
    | None -> ());
    if !s land 7 = 0 then Hashtbl.replace h k [ !s; !acc ]
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. t0

(* --- Replays: per-layer unit costs measured outside the run ---------------- *)

let replay_steps = function Full -> 200_000 | Smoke -> 10_000

(* The "hold" model: [depth] pending events, each firing reschedules one, so
   every step is one pop plus one push at that heap depth. *)
let engine_replay scale ~depth =
  let eng = Engine.create () in
  let rng = Rng.create 1 in
  let rec fire () =
    ignore (Engine.schedule eng ~delay:(Rng.exponential rng ~mean:1.) fire)
  in
  for _ = 1 to depth do
    ignore (Engine.schedule eng ~delay:(Rng.exponential rng ~mean:1.) fire)
  done;
  let steps = replay_steps scale in
  let t0 = Span.now_ns () in
  Span.with_ "replay.engine" (fun () ->
      for _ = 1 to steps do
        ignore (Engine.step eng)
      done);
  ns_since t0 /. float_of_int steps

(* [spawns] short processes that each delay once, next to [live] processes
   parked on a far timer. *)
let process_replay scale ~live =
  let eng = Engine.create () in
  for _ = 1 to live do
    Process.spawn eng (fun () -> Process.delay 1e9)
  done;
  Engine.run ~until:0. eng;
  let spawns = replay_steps scale / 4 in
  let t0 = Span.now_ns () in
  Span.with_ "replay.process" (fun () ->
      for _ = 1 to spawns do
        Process.spawn eng (fun () -> Process.delay 1e-3)
      done;
      Engine.run ~until:1. eng);
  ns_since t0 /. float_of_int spawns

let gen_replay scale params =
  let rng = Rng.create 2 in
  let n = replay_steps scale / 4 in
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  Span.with_ "replay.workload.gen" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Txn_gen.generate params rng))
      done);
  let ns = ns_since t0 in
  (ns /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n)

(* The workload's transaction stream on a bare [Mvcc], [keys] keys
   preloaded: the storage share of a transaction without replication,
   sessions or history. Returns ns per update and per read transaction. *)
let mvcc_replay scale params ~keys =
  let db = Mvcc.create () in
  if keys > 0 then begin
    let txn = Mvcc.begin_txn db in
    for k = 0 to keys - 1 do
      Mvcc.write db txn (Printf.sprintf "item:%06d" k) (Some "v0")
    done;
    ignore (Mvcc.commit db txn)
  end;
  let rng = Rng.create 3 in
  let n = replay_steps scale / 10 in
  let upd_ns = ref 0. and upd = ref 0 and read_ns = ref 0. and reads = ref 0 in
  Span.with_ "replay.storage.mvcc" (fun () ->
      for _ = 1 to n do
        let spec = Txn_gen.generate params rng in
        let t0 = Span.now_ns () in
        let txn = Mvcc.begin_txn db in
        List.iter
          (function
            | Txn_gen.Read_op k -> ignore (Mvcc.read db txn k)
            | Txn_gen.Write_op (k, v) -> Mvcc.write db txn k (Some v))
          spec.Txn_gen.ops;
        if Txn_gen.is_update spec then begin
          ignore (Mvcc.commit db txn);
          upd_ns := !upd_ns +. ns_since t0;
          incr upd
        end
        else begin
          Mvcc.end_read db txn;
          read_ns := !read_ns +. ns_since t0;
          incr reads
        end
      done);
  (!upd_ns /. float_of_int (max 1 !upd), !read_ns /. float_of_int (max 1 !reads))

(* Replays run before the measured section, in a fresh heap: after the
   run, its garbage would charge major-GC work to every replayed
   operation. The heap is compacted afterwards so the run starts as small
   as in an untraced rep. *)
let before_run replays =
  let r = replays () in
  Gc.compact ();
  r

(* --- One rep ---------------------------------------------------------------- *)

(* Per-layer metrics a workload cannot reach with an outside span read 0:
   the simulated workloads make one call, [Sim_system.run], and the embedded
   one runs no simulator. *)
let embedded_only =
  [ "core.system.update_overhead_ns"; "core.system.update_p50_us";
    "core.system.update_p99_us"; "core.system.read_p50_us";
    "core.system.read_p99_us"; "storage.vacuum.ms_per_call";
    "storage.vacuum.versions_reclaimed"; "core.propagation.ms_total";
    "core.propagation.records"; "core.secondary.us_per_refresh";
    "core.checker.history_txns"; "core.checker.verify_s" ]

let simulated_only =
  [ "sim.events"; "sim.ns_per_event"; "sim.engine.ns_per_event";
    "sim.process.ns_per_spawn"; "sim.explained_frac";
    "core.watchdog.peak_state"; "model.txns"; "model.refresh_commits";
    "model.read_rt_p95_ms"; "model.read_age_p95_ms"; "model.primary_util" ]

let zeros = List.map (fun k -> (k, 0.))

type result = {
  metrics : (string * float) list;
  txns : int;  (** transactions completed in the timed section *)
  errors : string list;  (** correctness-gate failures *)
  digest : string;  (** identical across reps of one seed *)
  model_digest : string;
      (** the simulated statistics alone: identical with or without tracing *)
  window : int64 * int64;  (** the timed section on the monotonic clock *)
}

let hex s = Digest.to_hex (Digest.string s)

let last_monitor_sample monitor =
  match List.rev (Lsr_obs.Timeseries.samples (Monitor.series monitor)) with
  | s :: _ -> s.Lsr_obs.Timeseries.values
  | [] -> []

(* Set-up of a simulated workload: the same system built and started, but
   no virtual time elapses. Repeated five times, or fewer when that takes
   over 0.3 s of CPU; the median is reported. *)
let simulated_setup cfg =
  let p = cfg.Sim.params in
  let cfg = { cfg with Sim.params = { p with Params.duration = 0.; warmup = 0. } } in
  let rec go times errors spent =
    if List.length times >= 5 || spent >= 0.3 then (times, errors)
    else begin
      let t0 = Sys.time () in
      let o = Sim.run cfg in
      let s = Sys.time () -. t0 in
      go (s :: times) (errors @ o.Sim.check_errors) (spent +. s)
    end
  in
  let times, errors = go [] [] 0. in
  { metrics = [ ("setup_s", Stats.median times) ]; txns = 0; errors;
    digest = ""; model_digest = ""; window = (0L, 0L) }

let run_simulated scale ~seed ~variant ~traced ~config ~depth =
  let cfg = config scale ~seed in
  let p = cfg.Sim.params in
  let cfg =
    match variant with
    | Timed | Setup -> cfg
    | No_watchdog -> { cfg with Sim.watchdog = false }
    | No_flight -> { cfg with Sim.flight = Lsr_obs.Flight.null }
  in
  let depth = depth scale in
  let replays =
    if not traced then None
    else
      Some
        (before_run (fun () ->
             ( engine_replay scale ~depth,
               process_replay scale ~live:depth,
               gen_replay scale p,
               mvcc_replay scale p ~keys:0 )))
  in
  (* Tracing reads storage sizes through a monitor sampling at the end of the
     run; monitors never change simulated outcomes, only the event count. *)
  let monitor =
    if traced then Monitor.create ~interval:(p.Params.duration /. 4.) ()
    else Monitor.null
  in
  let cfg = { cfg with Sim.monitor } in
  let g0 = Gc.quick_stat () in
  let w0 = Span.now_ns () in
  let t0 = Sys.time () in
  let o = Span.with_ "sim.run" (fun () -> Sim.run cfg) in
  let cpu_s = Sys.time () -. t0 in
  let window = (w0, Span.now_ns ()) in
  let g1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let reads = o.Sim.reads_completed and updates = o.Sim.updates_completed in
  let txns = reads + updates in
  let model =
    [
      ("model.txns", float_of_int txns);
      ("model.refresh_commits", float_of_int o.Sim.refresh_commits);
      ("model.read_rt_p95_ms", o.Sim.read_rt_p95 *. 1e3);
      ("model.read_age_p95_ms", o.Sim.read_age_p95 *. 1e3);
      ("model.primary_util", o.Sim.primary_utilization);
    ]
  in
  let model_text =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) model)
  in
  let timed =
    [ ("txns_per_s", float_of_int txns /. cpu_s); ("peak_rss_mb", rss);
      ("cpu_s", cpu_s) ]
  in
  let layers =
    match replays with
    | None -> []
    | Some (engine_ns, spawn_ns, (gen_ns, gen_words), (upd_ns, read_ns)) ->
      let sample = last_monitor_sample monitor in
      let col suffix =
        List.fold_left
          (fun acc (k, v) ->
            if String.ends_with ~suffix k then acc +. v else acc)
          0. sample
      in
      (* Counts over the whole run: the outcome counts the measured window
         only, so scale by duration / measured. *)
      let whole =
        p.Params.duration /. Float.max 1e-9 (p.Params.duration -. p.Params.warmup)
      in
      let events = float_of_int o.Sim.sim_events in
      (* Process switches are left out: a spawn replay also fires engine
         events, which the first term already counts. *)
      let explained_ns =
        (events *. engine_ns)
        +. (float_of_int txns *. whole *. gen_ns)
        +. float_of_int updates *. whole *. upd_ns
           *. float_of_int (1 + p.Params.num_secondaries)
        +. (float_of_int reads *. whole *. read_ns)
      in
      model
      @ gc_metrics ~txns g0 g1
      @ [
          ("sim.events", events);
          ("sim.ns_per_event", cpu_s *. 1e9 /. Float.max 1. events);
          ("sim.engine.ns_per_event", engine_ns);
          ("sim.process.ns_per_spawn", spawn_ns);
          ("sim.explained_frac", explained_ns /. (cpu_s *. 1e9));
          ("workload.gen.ns_per_txn", gen_ns);
          ("workload.gen.words_per_txn", gen_words);
          ("storage.mvcc.update_ns_per_txn", upd_ns);
          ("storage.mvcc.read_ns_per_txn", read_ns);
          ("storage.mvcc.versions", col ".versions");
          ("storage.wal.length", col ".wal");
          ( "core.session.blocked_frac",
            float_of_int o.Sim.blocked_reads /. float_of_int (max 1 reads) );
          ("core.watchdog.peak_state", float_of_int o.Sim.watchdog_peak_state);
        ]
      @ zeros embedded_only
  in
  {
    metrics = timed @ layers;
    txns;
    errors = o.Sim.check_errors;
    digest = hex (Printf.sprintf "%s,events=%d" model_text o.Sim.sim_events);
    model_digest = hex model_text;
    window;
  }

(* Every key the generator can draw ([Txn_gen] names keys "item:%06d"),
   written in chunks through the public update path and propagated. *)
let preload sys ~keys =
  let loader = System.connect sys "loader" in
  let chunk = 1000 in
  let lo = ref 0 in
  while !lo < keys do
    let first = !lo and last = min keys (!lo + chunk) - 1 in
    (match
       System.update sys loader (fun h ->
           for k = first to last do
             Handle.put h (Printf.sprintf "item:%06d" k) "v0"
           done)
     with
    | Ok () -> ()
    | Error _ -> failwith "preload transaction aborted");
    lo := last + 1
  done;
  System.pump sys;
  ignore (System.compact sys)

(* A forced-abort transaction runs its writes only: [System.check] judges
   the reads of an aborted update against snapshot 0, where the preloaded
   keys do not exist yet, and would report a false weak-SI violation. *)
let apply ?(writes_only = false) spec h =
  List.iter
    (function
      | Txn_gen.Read_op k -> if not writes_only then ignore (Handle.get h k)
      | Txn_gen.Write_op (k, v) -> Handle.put h k v)
    spec.Txn_gen.ops

(* One caller runs a closed loop over [sessions] sessions: each call waits
   for the previous one, so host latency per call is what a client of the
   embedded library sees. *)
let run_embedded scale ~seed ~traced =
  let e = embedded scale in
  let params = embedded_params e in
  let replays =
    if not traced then None
    else
      Some
        (before_run (fun () ->
             (gen_replay scale params, mvcc_replay scale params ~keys:e.keys)))
  in
  let t_setup = Sys.time () in
  let sys =
    Span.with_ "setup" (fun () ->
        let sys =
          System.create ~secondaries:3 ~guarantee:Session.Strong_session ()
        in
        preload sys ~keys:e.keys;
        sys)
  in
  let setup_s = Sys.time () -. t_setup in
  let clients =
    Array.init e.sessions (fun i -> System.connect sys (Printf.sprintf "c%d" i))
  in
  let rng = Rng.create seed in
  let upd_us = Array.make e.txns 0. and n_upd = ref 0 in
  let read_us = Array.make e.txns 0. and n_read = ref 0 in
  let errors = ref [] and failed = ref 0 in
  let fail i msg =
    incr failed;
    if List.length !errors < 10 then
      errors := Printf.sprintf "txn %d: %s" i msg :: !errors
  in
  let propagated = ref 0 and refreshed = ref 0 and reclaimed = ref 0 in
  let catch_up () =
    propagated :=
      !propagated + Span.with_ "core.propagation" (fun () -> System.propagate sys);
    refreshed :=
      !refreshed
      + Span.with_ "core.secondary.refresh_all" (fun () -> System.refresh_all sys)
  in
  let g0 = Gc.quick_stat () in
  let w0 = Span.now_ns () in
  let t0 = Sys.time () in
  Span.with_ "loop" (fun () ->
      for i = 0 to e.txns - 1 do
        let c = clients.(i mod e.sessions) in
        let spec =
          Span.with_ ~trace:i "workload.gen" (fun () -> Txn_gen.generate params rng)
        in
        (if Txn_gen.is_update spec then begin
           let force_abort = Rng.bernoulli rng ~p:params.Params.abort_prob in
           let s = Span.now_ns () in
           (match
              Span.with_ ~trace:i "core.system.update" (fun () ->
                  System.update sys c ~force_abort (apply ~writes_only:force_abort spec))
            with
           | Ok () | Error Mvcc.Forced -> ()
           | Error (Mvcc.Write_conflict k) -> fail i ("write conflict on " ^ k)
           | exception ex -> fail i (Printexc.to_string ex));
           upd_us.(!n_upd) <- ns_since s /. 1e3;
           incr n_upd
         end
         else begin
           let s = Span.now_ns () in
           (match
              Span.with_ ~trace:i "core.system.read" (fun () ->
                  System.read sys c (apply spec))
            with
           | () -> ()
           | exception ex -> fail i (Printexc.to_string ex));
           read_us.(!n_read) <- ns_since s /. 1e3;
           incr n_read
         end);
        if (i + 1) mod e.refresh_every = 0 then catch_up ();
        if (i + 1) mod e.compact_every = 0 then begin
          Span.with_ "core.system.pump" (fun () -> System.pump sys);
          reclaimed :=
            !reclaimed + Span.with_ "storage.vacuum" (fun () -> System.compact sys)
        end
      done;
      Span.with_ "core.system.pump" (fun () -> System.pump sys));
  let cpu_s = Sys.time () -. t0 in
  let window = (w0, Span.now_ns ()) in
  let g1 = Gc.quick_stat () in
  let t_check = Sys.time () in
  (match Span.with_ "core.checker.check" (fun () -> System.check sys) with
  | Ok () -> ()
  | Error es ->
    errors := List.rev_append (List.filteri (fun i _ -> i < 10) es) !errors);
  let verify_s = Sys.time () -. t_check in
  let rss = peak_rss_mb () in
  let txns = e.txns - !failed in
  let lat a n =
    let a = Array.sub a 0 n in
    Array.sort Float.compare a;
    (Stats.percentile a 0.5, Stats.percentile a 0.99)
  in
  let upd_p50, upd_p99 = lat upd_us !n_upd and read_p50, read_p99 = lat read_us !n_read in
  let timed =
    [
      ("txns_per_s", float_of_int txns /. cpu_s);
      ("setup_s", setup_s);
      ("peak_rss_mb", rss);
      ("cpu_s", cpu_s);
      ("core.system.update_p50_us", upd_p50);
      ("core.system.update_p99_us", upd_p99);
      ("core.system.read_p50_us", read_p50);
      ("core.system.read_p99_us", read_p99);
      ("core.checker.verify_s", verify_s);
    ]
  in
  let layers =
    match replays with
    | None -> []
    | Some ((gen_ns, gen_words), (upd_ns, read_ns)) ->
      let totals = Span.totals (Span.recorded ()) in
      let total name = Span.total_of totals name in
      let update = total "core.system.update" in
      let vacuum = total "storage.vacuum" in
      let versions =
        List.fold_left
          (fun acc i -> acc + Mvcc.version_count (System.secondary_db sys i))
          (Mvcc.version_count (System.primary_db sys))
          (List.init (System.secondaries sys) Fun.id)
      in
      gc_metrics ~txns g0 g1
      @ [
          ("workload.gen.ns_per_txn", gen_ns);
          ("workload.gen.words_per_txn", gen_words);
          ("storage.mvcc.update_ns_per_txn", upd_ns);
          ("storage.mvcc.read_ns_per_txn", read_ns);
          ( "core.system.update_overhead_ns",
            (update.Span.total_ns /. float_of_int (max 1 update.Span.count))
            -. upd_ns );
          ("storage.mvcc.versions", float_of_int versions);
          ( "storage.wal.length",
            float_of_int (Wal.length (Mvcc.wal (System.primary_db sys))) );
          ( "storage.vacuum.ms_per_call",
            vacuum.Span.total_ns /. 1e6 /. float_of_int (max 1 vacuum.Span.count) );
          ("storage.vacuum.versions_reclaimed", float_of_int !reclaimed);
          ( "core.propagation.ms_total",
            (total "core.propagation").Span.total_ns /. 1e6 );
          ("core.propagation.records", float_of_int !propagated);
          ( "core.secondary.us_per_refresh",
            (total "core.secondary.refresh_all").Span.total_ns /. 1e3
            /. float_of_int (max 1 !refreshed) );
          ( "core.session.blocked_frac",
            float_of_int (System.blocked_reads sys) /. float_of_int (max 1 !n_read) );
          ( "core.checker.history_txns",
            float_of_int (History.length (System.history sys)) );
        ]
      @ zeros simulated_only
  in
  let state = Buffer.create (1 lsl 20) in
  List.iter
    (fun (k, v) ->
      Buffer.add_string state k;
      Buffer.add_char state '=';
      Buffer.add_string state v;
      Buffer.add_char state '\n')
    (Mvcc.committed_state (System.primary_db sys));
  {
    metrics = timed @ layers;
    txns;
    errors = List.rev !errors;
    digest = hex (Buffer.contents state);
    model_digest = "";
    window;
  }

let run w scale ~seed ~variant ~traced =
  match (w.kind, variant) with
  | Simulated { config; _ }, Setup -> simulated_setup (config scale ~seed)
  | Simulated { config; depth }, _ ->
    run_simulated scale ~seed ~variant ~traced ~config ~depth
  | Embedded, _ -> run_embedded scale ~seed ~traced

(* The rep's result file; [extra] carries the traced rep's spans. *)
let result_json r ~extra =
  Json.Obj
    ([
       ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.metrics));
       ("txns", Json.Num (float_of_int r.txns));
       ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
       ("digest", Json.Str r.digest);
       ("model_digest", Json.Str r.model_digest);
       ( "window_ns",
         Json.Arr
           [ Json.Str (Int64.to_string (fst r.window));
             Json.Str (Int64.to_string (snd r.window)) ] );
     ]
    @ extra)
