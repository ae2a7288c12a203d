open Lsr_sim
open Lsr_storage
open Lsr_core
open Lsr_workload
module Obs = Lsr_obs.Obs
module Histogram = Lsr_obs.Histogram

type arrival = Poisson | Mmpp of float

type client_mode =
  | Closed_loop
  | Open_loop of { clients : int; arrival : arrival; session_pool : int }

type fence_policy =
  | No_fence
  | All_reads of Session.fence
  | Fence_mix of (float * Session.fence option) list

type config = {
  params : Params.t;
  guarantee : Session.guarantee;
  seed : int;
  record_history : bool;
  watchdog : bool;
  serial_refresh : bool;
  ship_aborted : bool;
  migrate_prob : float;
  client_mode : client_mode;
  fence : fence_policy;
  faults : Channel.config option;
  obs : Obs.t;
  flight : Lsr_obs.Flight.t;
  monitor : Monitor.t;
}

let config params guarantee ~seed =
  {
    params;
    guarantee;
    seed;
    record_history = false;
    watchdog = false;
    serial_refresh = false;
    ship_aborted = false;
    migrate_prob = 0.;
    client_mode = Closed_loop;
    fence = No_fence;
    faults = None;
    obs = Obs.null;
    flight = Lsr_obs.Flight.null;
    monitor = Monitor.null;
  }

(* The per-site transaction rate a closed-loop population of [clients] would
   offer if it never queued: each client cycles through one think time plus
   its own service demand. Used to match offered load when the same
   population is modeled open-loop. *)
let offered_rate p ~clients =
  let mean_size =
    float_of_int (p.Params.tran_size_min + p.Params.tran_size_max) /. 2.
  in
  float_of_int clients
  /. (p.Params.think_time +. (mean_size *. p.Params.op_service_time))

type resource_report = {
  res_site : string;
  res_utilization : float;
  res_throughput : float;
  res_arrivals : int;
  res_completions : int;
  res_wait_mean : float;
  res_wait_total : float;
  res_service_mean : float;
  res_service_total : float;
  res_queue_mean : float;
  res_littles_gap : float;
}

type outcome = {
  throughput_fast : float;
  read_rt_mean : float;
  update_rt_mean : float;
  read_rt_p50 : float;
  read_rt_p95 : float;
  update_rt_p95 : float;
  reads_completed : int;
  updates_completed : int;
  aborts : int;
  fcw_aborts : int;
  blocked_reads : int;
  fenced_reads : int;
  block_wait_mean : float;
  refresh_staleness_mean : float;
  refresh_commits : int;
  wasted_ops : int;
  read_age_mean : float;
  read_age_p50 : float;
  read_age_p95 : float;
  read_age_p99 : float;
  read_missed_mean : float;
  primary_utilization : float;
  secondary_utilization : float;
  check_errors : string list;
  check_report : Watchdog.verdict option;
  channels : Channel.stats;
  sim_events : int;
  checker_cpu_s : float;
  watchdog_verdict : Watchdog.verdict option;
  watchdog_alerts : Watchdog.alert list;
  watchdog_peak_state : int;
  watchdog_report : Lsr_obs.Json.t option;
  flight_report : Lsr_obs.Json.t option;
  flight_trigger : string option;
  flight_events : int;
  flight_bytes : int;
  resources : resource_report list;
}

type sec_site = {
  index : int;  (* the site's secondary in [rs] *)
  res : Resource.t;
  session_cond : Seqcond.t;  (* advanced to seq(DBsec) after each refresh
                                commit; blocked readers wait on their
                                session's required seq, so a commit pays
                                only for the readers it actually unblocks *)
  (* A parked read is a row of these columns, reused through a free list
     threaded through [sizes]: its session's label, its fence and the
     floor that resolved to at arrival, its size, key stream (8 bytes in
     the bank [streams]), arrival time and continuation. *)
  labels : string Column.t;
  fences : Session.fence option Column.t;
  floors : Timestamp.t Column.t;
  sizes : int Column.t;
  mutable streams : Bytes.t;
  t0s : float Column.t;
  ks : (unit -> unit) Column.t;
  mutable rows : int;  (* rows ever used *)
  mutable free : int;  (* the first free row, -1 when none is *)
  mutable wake_read : unit -> unit;  (* runs or re-parks row [Engine.arg] *)
  mutable last_delivery : float;  (* keeps jittered deliveries FIFO *)
}

type state = {
  cfg : config;
  eng : Engine.t;
  (* Primary, propagator, sessions, commit clock, history, watchdog; its
     hooks hand each read's freshness and each refresh's staleness to
     [metrics]. *)
  rs : Replica_set.t;
  (* The propagator, refreshers and applicators of [rs], serving on each
     site's [res]. *)
  sched : Scheduler.t;
  primary_res : Resource.t;
  sites : sec_site array;
  metrics : Metrics.t;
  jitter_rng : Rng.t;
  mutable label_counter : int;
}

let make_site eng rs session_conds index =
  { index;
    res = Resource.create ~name:(Replica_set.site_name rs index) eng;
    session_cond = session_conds.(index);
    labels = Column.make ""; fences = Column.make None;
    floors = Column.make Timestamp.zero; sizes = Column.make 0;
    streams = Bytes.empty; t0s = Column.make 0.; ks = Column.make ignore;
    rows = 0; free = -1;
    wake_read = ignore; last_delivery = 0. }

(* The site's current replica, read through [rs] at each use. *)
let secondary st site = Replica_set.secondary st.rs site.index

(* One processor-sharing job of [n] operations, then [k ()]; none when
   [n = 0]. A transaction present without a break from its first operation
   to its last gets the same share as a chain of per-operation jobs, so the
   one job finishes at the instant the chain would. *)
let serve p res n k =
  if n = 0 then k ()
  else Resource.use res (float_of_int n *. p.Params.op_service_time) k

(* --- Propagator (Algorithm 3.1 under a 10 s cycle) ------------------------- *)

(* A fault channel surfaces the batch, in order, from its own ticks (loss,
   duplication, delay and reordering happen inside); a plain link delivers
   it now or after a jitter. *)
let propagate st () =
  let jitter = st.cfg.params.Params.propagation_jitter in
  let deliver i =
    let site = st.sites.(i) in
    if jitter <= 0. then Scheduler.deliver st.sched i ()
    else begin
      (* Per-destination scheduling variance; delivery times to one site
         never reorder (the link stays FIFO). *)
      let now = Engine.now st.eng in
      let at = now +. (Rng.float st.jitter_rng *. jitter) in
      let at = Float.max site.last_delivery at in
      site.last_delivery <- at;
      Engine.after st.eng ~delay:(at -. now) (Scheduler.deliver st.sched i)
    end
  in
  ignore (Scheduler.propagate st.sched ~deliver);
  ignore (Replica_set.retire st.rs)

(* Virtual seconds per channel tick: the base one-hop latency and the
   granularity of retransmission timeouts. *)
let fault_tick = 1.0

(* --- Clients ----------------------------------------------------------------- *)

let fresh_session st =
  st.label_counter <- st.label_counter + 1;
  st.label_counter

let session_label session = "s" ^ string_of_int session

let note_completion st ~t0 ~is_update =
  let now = Engine.now st.eng in
  Metrics.note_completion st.metrics ~now ~response_time:(now -. t0) ~is_update

(* An update submitted at [t0], retried until it commits, then [k ()]. *)
let execute_update st rng label ops ~t0 k =
  let p = st.cfg.params in
  (* One record for the whole retry loop: only the committed attempt becomes
     a transaction. *)
  let txn = Replica_set.begin_update st.rs ~session:label in
  let rec attempt () =
    (* Nothing else draws from [rng] while this transaction runs, so drawing
       the abort before the operations gives the same stream as drawing it
       after them. *)
    let force_abort = Rng.bernoulli rng ~p:p.Params.abort_prob in
    serve p st.primary_res (List.length ops) (fun () ->
        let h = Replica_set.handle txn in
        List.iter
          (function
            | Txn_gen.Read_op key -> ignore (Handle.get h key)
            | Txn_gen.Write_op (key, value) -> Handle.put h key value)
          ops;
        match Replica_set.commit ~force_abort st.rs txn with
        | Ok () ->
          note_completion st ~t0 ~is_update:true;
          k ()
        | Error (Mvcc.Write_conflict _) ->
          (* A real conflict under the first-committer-wins rule (key skew);
             restart like any other abort to maintain the offered load. *)
          Metrics.note_fcw_abort st.metrics ~now:(Engine.now st.eng);
          Replica_set.retry st.rs txn;
          attempt ()
        | Error Mvcc.Forced ->
          Metrics.note_abort st.metrics ~now:(Engine.now st.eng);
          Replica_set.retry st.rs txn;
          attempt ())
  in
  attempt ()

(* A read submitted at [t0], from its snapshot to its completion, then
   [k ()]; run once the site's seq(DBsec) has reached [required]. Its
   [size] keys are drawn from [keys] as its operations run. *)
let run_read ?fence st site label ~size ~keys ~required ~t0 k =
  (* Begun in the event that found [required] reached: the watchdog's
     captured floors equal the post-hoc sweep's floors at the first
     operation, and the fence floor is taken with the snapshot, as a pooled
     session's floor can rise while the operations run. The snapshot's
     freshness reaches [metrics] through the [on_read] hook. *)
  let txn =
    Replica_set.begin_read ?fence st.rs ~session:label ~site:site.index
      ~read_at:t0 ~required
  in
  serve st.cfg.params site.res size (fun () ->
      let h = Replica_set.handle txn in
      for _ = 1 to size do
        ignore (Handle.get_number h (Txn_gen.index st.cfg.params keys))
      done;
      Replica_set.finish_read st.rs txn;
      note_completion st ~t0 ~is_update:false;
      k ())

(* A free row of the site's parked reads, or a new one. *)
let parked_row site =
  let i = site.free in
  if i >= 0 then begin
    site.free <- Column.get site.sizes i;
    i
  end
  else begin
    let i = site.rows in
    site.rows <- i + 1;
    let bytes = Bytes.length site.streams in
    if 8 * site.rows > bytes then
      site.streams <- Bytes.extend site.streams 0 (max 64 bytes);
    i
  end

(* The release of the site's parked read in row [Engine.arg]: its
   threshold may have risen since it parked, so it parks again under a new
   registration or frees its row and runs the rest of the read. *)
let wake_read st site () =
  let i = Engine.arg st.eng in
  let fence = Column.get site.fences i and label = Column.get site.labels i in
  let floor = Column.get site.floors i in
  let need = Replica_set.read_threshold ?fence st.rs ~session:label ~floor in
  if need > Seqcond.level site.session_cond then
    Seqcond.wait site.session_cond ~need ~arg:i site.wake_read
  else begin
    let size = Column.get site.sizes i and keys = Rng.load site.streams i in
    let t0 = Column.get site.t0s i and k = Column.get site.ks i in
    Column.set site.ks i ignore;
    Column.set site.sizes i site.free;
    site.free <- i;
    let now = Engine.now st.eng in
    Metrics.note_block st.metrics ~now ~wait:(now -. t0);
    run_read ?fence st site label ~size ~keys ~required:need ~t0 k
  end

(* A read submitted at [t0], the current instant, then [k ()]. Its
   threshold is read once here; a read that must wait parks as a row of
   the site's columns, and the commit that satisfies it runs the rest. *)
let execute_read ?fence st site label ~size ~keys ~t0 k =
  if Option.is_some fence then Metrics.note_fenced_read st.metrics;
  let floor = Replica_set.fence_floor ?fence st.rs in
  let need = Replica_set.read_threshold ?fence st.rs ~session:label ~floor in
  if need <= Secondary.seq_dbsec (secondary st site) then
    run_read ?fence st site label ~size ~keys ~required:need ~t0 k
  else begin
    let i = parked_row site in
    Column.set site.labels i label;
    Column.set site.fences i fence;
    Column.set site.floors i floor;
    Column.set site.sizes i size;
    Rng.save keys site.streams i;
    Column.set site.t0s i t0;
    Column.set site.ks i k;
    Seqcond.wait site.session_cond ~need ~arg:i site.wake_read
  end

(* The fence for one read, drawn from the run's fence policy. [All_reads]
   draws nothing from the rng, so a run with [All_reads Session_seq] under
   ALG-SI consumes the exact same random stream as the unfenced
   ALG-STRONG-SESSION-SI run it must reproduce. [Fence_mix] draws once per
   read: weighted classes, [None] entries modelling unfenced traffic. *)
let draw_fence st rng =
  match st.cfg.fence with
  | No_fence -> None
  | All_reads f -> Some f
  | Fence_mix weighted ->
    let total = List.fold_left (fun acc (w, _) -> acc +. Float.max 0. w) 0. weighted in
    if total <= 0. then None
    else begin
      let x = Rng.float rng *. total in
      let rec pick acc = function
        | [] -> None
        | (w, f) :: rest ->
          let acc = acc +. Float.max 0. w in
          if x < acc then f else pick acc rest
      in
      pick 0. weighted
    end

(* Draw one transaction from [rng], execute it against the system, record
   its telemetry, then [k ()] — the body shared by both client models. *)
let run_txn st site rng ~label k =
  let t0 = Engine.now st.eng in
  match Txn_gen.draw st.cfg.params rng with
  | Txn_gen.Updates ops -> execute_update st rng label ops ~t0 k
  | Txn_gen.Reads { size; keys } ->
    (* Optional load-balancing migration: serve this read from a random
       secondary instead of the home site. *)
    let site =
      if st.cfg.migrate_prob > 0. && Rng.bernoulli rng ~p:st.cfg.migrate_prob
      then st.sites.(Rng.uniform rng ~lo:0 ~hi:(Array.length st.sites - 1))
      else site
    in
    let fence = draw_fence st rng in
    execute_read ?fence st site label ~size ~keys ~t0 k

(* A site's closed-loop clients are rows: client [i] keeps its session's
   number in [sessions.(i)], its end in the flat [session_ends.(i)] and
   its stream in slot [i] of the bank [streams]. A thinking client is one
   [after_arg] timer carrying [i] to the site's one [wake]. A turn loads
   the stream and runs a transaction; its completion draws the think
   time, saves the stream and arms the timer. Clients start in place,
   with no start event. *)
let closed_loop st site root =
  let p = st.cfg.params in
  let n = p.Params.clients_per_secondary in
  let sessions = Array.make n 0 and session_ends = Array.make n 0. in
  let streams = Bytes.create (8 * n) in
  let rec think rng i =
    let delay = Rng.exponential rng ~mean:p.Params.think_time in
    Rng.save rng streams i;
    Engine.after_arg st.eng ~delay ~arg:i wake
  and wake () =
    let i = Engine.arg st.eng in
    let rng = Rng.load streams i in
    let now = Engine.now st.eng in
    if now > session_ends.(i) then begin
      sessions.(i) <- fresh_session st;
      session_ends.(i) <- now +. Rng.exponential rng ~mean:p.Params.session_time
    end;
    run_txn st site rng ~label:(session_label sessions.(i)) (fun () ->
        think rng i)
  in
  for i = 0 to n - 1 do
    let rng = Rng.split root in
    sessions.(i) <- fresh_session st;
    session_ends.(i) <- Rng.exponential rng ~mean:p.Params.session_time;
    think rng i
  done

(* --- Open-loop aggregated clients -------------------------------------------

   One arrival chain per site replaces its [clients] closed-loop clients'
   think timers: transactions arrive at the rate the population would offer
   if it never queued ({!offered_rate}), each arrival starting in a
   zero-delay event of its own, so pending events and live continuations
   scale with transactions in flight, not with the modeled population.
   Sessions are modeled by a bounded pool of rotating labels: each arrival
   draws a slot uniformly, and a slot whose session expired gets a fresh
   label (the session-guarantee machinery sees a subsample of the real
   population's sessions; the pool is capped so state stays bounded at
   millions of modeled clients). *)

type session_slot = { mutable slot_label : string; mutable slot_end : float }

let open_loop st site ~clients ~arrival ~session_pool rng () =
  let p = st.cfg.params in
  let rate = offered_rate p ~clients in
  let pool_size =
    if session_pool > 0 then session_pool else min clients 4096
  in
  let pool =
    Array.init (max 1 pool_size) (fun _ ->
        {
          slot_label = session_label (fresh_session st);
          slot_end = Rng.exponential rng ~mean:p.Params.session_time;
        })
  in
  let pick_label now =
    let slot = pool.(Rng.uniform rng ~lo:0 ~hi:(Array.length pool - 1)) in
    if now > slot.slot_end then begin
      slot.slot_label <- session_label (fresh_session st);
      slot.slot_end <- now +. Rng.exponential rng ~mean:p.Params.session_time
    end;
    slot.slot_label
  in
  let emit () =
    let label = pick_label (Engine.now st.eng) in
    let txn_rng = Rng.split rng in
    Engine.after st.eng ~delay:0. (fun () -> run_txn st site txn_rng ~label ignore)
  in
  match arrival with
  | Poisson ->
    let mean = 1. /. rate in
    let rec arrive () =
      emit ();
      next ()
    and next () = Engine.after st.eng ~delay:(Rng.exponential rng ~mean) arrive in
    next ()
  | Mmpp burst ->
    (* Two-state Markov-modulated Poisson process with equal expected dwell
       in each state, rates scaled so the long-run mean rate stays [rate]:
       r_hi = 2·rate·b/(1+b), r_lo = 2·rate/(1+b) for burstiness b =
       r_hi/r_lo. Dwell spans ~50 mean interarrivals so bursts are long
       enough to stress the refresh pipeline. Simulated exactly by racing
       the next arrival against the state-switch instant; the arrival draw
       is redrawn at a switch (the exponential race conditioned on the new
       rate). *)
    let burst = Float.max 1. burst in
    let dwell = 50. /. rate in
    let r_hi = 2. *. rate *. burst /. (1. +. burst) in
    let r_lo = 2. *. rate /. (1. +. burst) in
    let in_high = ref (Rng.bernoulli rng ~p:0.5) in
    let until_switch = ref (Rng.exponential rng ~mean:dwell) in
    let rec next () =
      let r = if !in_high then r_hi else r_lo in
      let wait = Rng.exponential rng ~mean:(1. /. r) in
      if wait <= !until_switch then begin
        until_switch := !until_switch -. wait;
        Engine.after st.eng ~delay:wait arrive
      end
      else Engine.after st.eng ~delay:!until_switch switch
    and arrive () =
      emit ();
      next ()
    and switch () =
      in_high := not !in_high;
      until_switch := Rng.exponential rng ~mean:dwell;
      next ()
    in
    next ()

(* --- Monitor probe ----------------------------------------------------------

   One sample row of the periodic system monitor: pure reads of simulation
   state (queueing telemetry, refresh backlogs, storage footprints). Nothing
   here mutates or wakes anything, so an attached monitor cannot perturb the
   run. *)

let monitor_probe st () =
  let resource r =
    let n = Resource.name r in
    [
      (n ^ ".util", Resource.utilization r);
      (n ^ ".qlen", Resource.mean_queue_length r);
      (n ^ ".depth", float_of_int (Resource.load r));
    ]
  in
  let pr = Replica_set.primary st.rs in
  let primary =
    resource st.primary_res
    @ [
        ("primary.wal", float_of_int (Wal.length (Mvcc.wal pr)));
        ("primary.versions", float_of_int (Mvcc.version_count pr));
      ]
  in
  let per_site =
    Array.fold_left
      (fun acc site ->
        let name = Replica_set.site_name st.rs site.index in
        let sec = secondary st site in
        acc
        @ resource site.res
        @ [
            ( name ^ ".update_queue",
              float_of_int (Secondary.update_queue_length sec) );
            ( name ^ ".pending",
              float_of_int (Secondary.pending_queue_length sec) );
            ( name ^ ".versions",
              float_of_int (Mvcc.version_count (Secondary.db sec)) );
          ])
      primary st.sites
  in
  match Replica_set.watchdog st.rs with
  | None -> per_site
  | Some w ->
    per_site
    @ [
        ( "watchdog.alerts",
          float_of_int (Watchdog.verdict w).Watchdog.alerts_total );
        ("watchdog.state", float_of_int (Watchdog.state_size w));
      ]

let resource_report r =
  {
    res_site = Resource.name r;
    res_utilization = Resource.utilization r;
    res_throughput = Resource.throughput r;
    res_arrivals = Resource.arrivals r;
    res_completions = Resource.completions r;
    res_wait_mean = Stat.mean (Resource.wait_stat r);
    res_wait_total = Stat.total (Resource.wait_stat r);
    res_service_mean = Stat.mean (Resource.service_stat r);
    res_service_total = Stat.total (Resource.service_stat r);
    res_queue_mean = Resource.mean_queue_length r;
    res_littles_gap = Option.value ~default:0. (Resource.littles_law_gap r);
  }

(* --- Assembly --------------------------------------------------------------- *)

(* The run's full configuration, embedded in the flight recorder's postmortem
   bundle so a bundle alone identifies the run that produced it: guarantee,
   seed, every workload parameter, client model, fence policy and fault
   schedule. Plain literals only — byte-stable across runs of one seed. *)
let config_json cfg =
  let open Lsr_obs.Json in
  let p = cfg.params in
  let num x = Num x in
  let int n = Num (float_of_int n) in
  let client_mode =
    match cfg.client_mode with
    | Closed_loop -> Str "closed-loop"
    | Open_loop { clients; arrival; session_pool } ->
      Obj
        [
          ("mode", Str "open-loop");
          ("clients", int clients);
          ( "arrival",
            match arrival with
            | Poisson -> Str "poisson"
            | Mmpp b -> Str (Printf.sprintf "mmpp:%g" b) );
          ("session_pool", int session_pool);
        ]
  in
  let fence_json = function
    | None -> Null
    | Some f -> Str (Session.fence_to_string f)
  in
  let fence_policy =
    match cfg.fence with
    | No_fence -> Null
    | All_reads f -> Obj [ ("all_reads", fence_json (Some f)) ]
    | Fence_mix weighted ->
      Arr
        (List.map
           (fun (w, f) -> Obj [ ("weight", num w); ("fence", fence_json f) ])
           weighted)
  in
  let faults =
    match cfg.faults with
    | None -> Null
    | Some fc ->
      let {
        Channel.loss;
        dup;
        delay;
        max_delay;
        reorder;
        reorder_window;
        ack_loss;
        rto;
        backoff;
        max_rto;
      } =
        fc
      in
      Obj
        [
          ("loss", num loss);
          ("dup", num dup);
          ("delay", num delay);
          ("max_delay", int max_delay);
          ("reorder", num reorder);
          ("reorder_window", int reorder_window);
          ("ack_loss", num ack_loss);
          ("rto", int rto);
          ("backoff", num backoff);
          ("max_rto", int max_rto);
        ]
  in
  Obj
    [
      ("guarantee", Str (Session.guarantee_name cfg.guarantee));
      ("seed", int cfg.seed);
      ("record_history", Bool cfg.record_history);
      ("watchdog", Bool cfg.watchdog);
      ("serial_refresh", Bool cfg.serial_refresh);
      ("ship_aborted", Bool cfg.ship_aborted);
      ("migrate_prob", num cfg.migrate_prob);
      ("client_mode", client_mode);
      ("fence_policy", fence_policy);
      ("faults", faults);
      ("fault_tick", num fault_tick);
      ( "params",
        Obj
          [
            ("num_secondaries", int p.Params.num_secondaries);
            ("clients_per_secondary", int p.Params.clients_per_secondary);
            ("think_time", num p.Params.think_time);
            ("session_time", num p.Params.session_time);
            ("update_tran_prob", num p.Params.update_tran_prob);
            ("abort_prob", num p.Params.abort_prob);
            ("tran_size_min", int p.Params.tran_size_min);
            ("tran_size_max", int p.Params.tran_size_max);
            ("op_service_time", num p.Params.op_service_time);
            ("update_op_prob", num p.Params.update_op_prob);
            ("propagation_delay", num p.Params.propagation_delay);
            ("propagation_jitter", num p.Params.propagation_jitter);
            ("warmup", num p.Params.warmup);
            ("duration", num p.Params.duration);
            ("replications", int p.Params.replications);
            ("response_time_cap", num p.Params.response_time_cap);
            ("key_space", int p.Params.key_space);
            ("key_skew", num p.Params.key_skew);
          ] );
    ]

let run ?history cfg =
  let p = cfg.params in
  let period = p.Params.propagation_delay in
  if not (Float.is_finite period) || period <= 0. then
    invalid_arg "Sim_system.run: propagation_delay must be positive and finite";
  let eng = Engine.create () in
  (* The refresher wakes fenced/session-blocked readers as it commits: each
     refresh commit advances the site's threshold queue to the new
     seq(DBsec) from inside the [Commit] move, so readers parked on a
     required seq are released by exactly the commit that satisfies them. *)
  let session_conds =
    Array.init p.Params.num_secondaries (fun _ -> Seqcond.create eng)
  in
  let metrics =
    Metrics.create ~obs:cfg.obs ~warmup:p.Params.warmup
      ~cap:p.Params.response_time_cap
  in
  (* Flight events and freshness samples are stamped with virtual time.
     Binding the clock only reads the engine; it cannot feed back into the
     run. A refresh commit not on the commit clock counts as 0 s stale. *)
  let rs =
    Replica_set.create
      ~now:(fun () -> Engine.now eng)
      ~on_refresh_commit:(fun i ts lag ->
        Seqcond.advance session_conds.(i) ts;
        Metrics.note_refresh metrics ~now:(Engine.now eng)
          ~staleness:(Option.value lag ~default:0.))
      ~on_read:(fun _ ~age ~missed ->
        Metrics.note_read_freshness metrics ~now:(Engine.now eng) ~age ~missed)
      ~faults:(Option.map (fun fc -> (fc, cfg.seed lxor 0xFA17)) cfg.faults)
      ~ship_aborted:cfg.ship_aborted
      ~sinks:{ Lsr_obs.Sinks.obs = cfg.obs; flight = cfg.flight }
      ~record_history:cfg.record_history ~watchdog:cfg.watchdog
      ?history ~sites:p.Params.num_secondaries cfg.guarantee
  in
  let sites =
    Array.init p.Params.num_secondaries (make_site eng rs session_conds)
  in
  let sched =
    Scheduler.create ~serial_refresh:cfg.serial_refresh
      ~serve:(fun i ~ops k -> serve p sites.(i).res ops k)
      ~wasted:(fun ops ->
        Metrics.note_wasted_ops metrics ~now:(Engine.now eng) ops)
      eng rs
  in
  let st =
    {
      cfg;
      eng;
      rs;
      sched;
      primary_res = Resource.create ~name:"primary" eng;
      sites;
      metrics;
      jitter_rng = Rng.create (cfg.seed lxor 0x5EED);
      label_counter = 0;
    }
  in
  Array.iter (fun site -> site.wake_read <- wake_read st site) st.sites;
  let root = Rng.create cfg.seed in
  Monitor.attach cfg.monitor eng ~probe:(monitor_probe st);
  Engine.every eng p.Params.propagation_delay (propagate st);
  if cfg.faults <> None then
    Array.iter
      (fun site ->
        Engine.every eng fault_tick (Scheduler.deliver sched site.index))
      st.sites;
  Scheduler.start sched;
  (match cfg.client_mode with
  | Closed_loop ->
    Array.iter (fun site -> closed_loop st site root) st.sites
  | Open_loop { clients; arrival; session_pool } ->
    Array.iter
      (fun site ->
        let rng = Rng.split root in
        Engine.after eng ~delay:0.
          (open_loop st site ~clients ~arrival ~session_pool rng))
      st.sites);
  Engine.run ~until:p.Params.duration eng;
  let m = st.metrics in
  let measured = p.Params.duration -. p.Params.warmup in
  let checker_started = Sys.time () in
  (* The watchdog's verdict joins the same error list as the post-hoc
     battery, so a violated guarantee fails the run whether or not a history
     was recorded. *)
  let check_errors, check_report = Replica_set.check rs in
  let checker_cpu_s =
    if cfg.record_history then Sys.time () -. checker_started else 0.
  in
  let watchdog = Replica_set.watchdog rs in
  let secondary_utilization =
    let busy =
      Array.fold_left (fun acc site -> acc +. Resource.busy_time site.res) 0. st.sites
    in
    busy /. (p.Params.duration *. float_of_int (Array.length st.sites))
  in
  (* Postmortem capture. A watchdog alert already triggered the recorder
     mid-run; a post-hoc battery failure triggers here so history-only runs
     still yield a bundle; otherwise the bundle is the end-of-run window
     (explicitly attaching a recorder always produces one). Built after every
     simulated event, so it cannot perturb the run. *)
  let flight_report, flight_trigger =
    if not (Lsr_obs.Flight.enabled cfg.flight) then (None, None)
    else begin
      if check_errors <> [] && not (Lsr_obs.Flight.triggered cfg.flight) then
        Lsr_obs.Flight.trigger cfg.flight ~reason:"checker"
          ~detail:(String.concat "; " check_errors)
          ();
      let bundle =
        Lsr_obs.Flight.bundle_json cfg.flight ~config:(config_json cfg)
      in
      (Some bundle, Lsr_obs.Flight.trigger_reason cfg.flight)
    end
  in
  (* The recorder outlives the run inside a report: a clock still reading
     [eng] would keep the engine, every client and both stores alive. *)
  Lsr_obs.Flight.set_clock cfg.flight (Fun.const (Engine.now eng));
  {
    throughput_fast = float_of_int (Metrics.fast_completions m) /. measured;
    read_rt_mean = Stat.mean (Metrics.read_rt m);
    update_rt_mean = Stat.mean (Metrics.update_rt m);
    read_rt_p50 = Histogram.quantile (Metrics.read_rt_hist m) 0.5;
    read_rt_p95 = Histogram.quantile (Metrics.read_rt_hist m) 0.95;
    update_rt_p95 = Histogram.quantile (Metrics.update_rt_hist m) 0.95;
    reads_completed = Stat.count (Metrics.read_rt m);
    updates_completed = Stat.count (Metrics.update_rt m);
    aborts = Metrics.aborts m;
    fcw_aborts = Metrics.fcw_aborts m;
    blocked_reads = Metrics.blocked_reads m;
    fenced_reads = Metrics.fenced_reads m;
    block_wait_mean = Stat.mean (Metrics.block_wait m);
    refresh_staleness_mean = Stat.mean (Metrics.refresh_staleness m);
    refresh_commits = Metrics.refresh_commits m;
    wasted_ops = Metrics.wasted_ops m;
    read_age_mean = Stat.mean (Metrics.read_age m);
    read_age_p50 = Histogram.quantile (Metrics.read_age_hist m) 0.5;
    read_age_p95 = Histogram.quantile (Metrics.read_age_hist m) 0.95;
    read_age_p99 = Histogram.quantile (Metrics.read_age_hist m) 0.99;
    read_missed_mean = Stat.mean (Metrics.read_missed m);
    primary_utilization = Resource.busy_time st.primary_res /. p.Params.duration;
    secondary_utilization;
    check_errors;
    check_report;
    channels = Replica_set.channel_stats rs;
    sim_events = Engine.events_processed eng;
    checker_cpu_s;
    watchdog_verdict = Option.map Watchdog.verdict watchdog;
    watchdog_alerts =
      (match watchdog with Some w -> Watchdog.alerts w | None -> []);
    watchdog_peak_state =
      (match watchdog with Some w -> Watchdog.peak_state w | None -> 0);
    watchdog_report = Option.map Watchdog.report_json watchdog;
    flight_report;
    flight_trigger;
    flight_events = Lsr_obs.Flight.events_noted cfg.flight;
    flight_bytes = Lsr_obs.Flight.approx_bytes cfg.flight;
    resources =
      resource_report st.primary_res
      :: Array.to_list (Array.map (fun site -> resource_report site.res) st.sites);
  }
