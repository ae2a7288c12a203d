(* Tests for the fault-injection layer: the sequenced loss/dup/delay/reorder
   channel, its wiring into the embedded system, stale-backup + log-replay recovery, and the randomized protocol
   harness that checks the paper's guarantees (weak SI, session guarantees,
   Theorem 3.1 completeness) under adversarial fault schedules with a
   crash/restart in the middle.

   The number of randomized trials is controlled by the FAULT_TRIALS
   environment variable (default 40; CI sets 200). Seeds are fixed, so a
   reported failure replays exactly. *)

open Lsr_storage
open Lsr_core
module Rng = Lsr_sim.Rng

let check_bool = Alcotest.(check bool)

(* Tick [ch] until it is idle, concatenating deliveries; fails after 100,000
   ticks without quiescing (only possible with a saturated loss rate). *)
let drain ch =
  let out = ref [] in
  let ticks = ref 0 in
  while not (Channel.idle ch) do
    incr ticks;
    if !ticks > 100_000 then failwith "drain: not quiescent after 100000 ticks";
    out := List.rev_append (Channel.tick ch) !out
  done;
  List.rev !out
let check_int = Alcotest.(check int)

let start_rec i = Wal.Start { txn = i; ts = i }

let commit_rec i =
  Wal.Commit
    {
      txn = i;
      ts = i;
      updates = [ { Wal.key = Printf.sprintf "k%d" i; value = Some "v" } ];
      digest = i;
    }

(* The canonical record stream for n transactions, in primary log order. *)
let stream n =
  List.concat_map (fun i -> [ start_rec i; commit_rec i ]) (List.init n succ)

(* --- Channel: delivery semantics --------------------------------------------- *)

let test_channel_reliable_fifo () =
  let ch =
    Channel.create ~config:Channel.reliable ~rng:(Rng.create 1) ()
  in
  let records = stream 5 in
  Channel.send ch records;
  let delivered = drain ch in
  check_bool "exact sequence" true (delivered = records);
  check_bool "idle after drain" true (Channel.idle ch);
  let s = Channel.stats ch in
  check_int "sent" 10 s.Channel.sent;
  check_int "delivered" 10 s.Channel.delivered;
  check_int "no drops" 0 s.Channel.dropped;
  check_int "no retransmits" 0 s.Channel.retransmitted

let test_channel_lossy_exactly_once_in_order () =
  let ch = Channel.create ~config:Channel.chaos ~rng:(Rng.create 42) () in
  let records = stream 40 in
  (* Interleave sends and ticks so retransmissions overlap fresh traffic. *)
  let collected = ref [] in
  let rec feed_collect = function
    | [] -> ()
    | a :: b :: rest ->
      Channel.send ch [ a; b ];
      collected := List.rev_append (Channel.tick ch) !collected;
      feed_collect rest
    | [ a ] -> Channel.send ch [ a ]
  in
  feed_collect records;
  collected := List.rev_append (drain ch) !collected;
  let delivered = List.rev !collected in
  check_bool "exactly the sent sequence, in order" true (delivered = records);
  let s = Channel.stats ch in
  check_bool "faults actually happened" true (s.Channel.dropped > 0);
  check_bool "loss was repaired by retransmission" true
    (s.Channel.retransmitted > 0);
  check_bool "queues were observed" true (s.Channel.max_flight > 0)

let test_channel_duplicates_suppressed () =
  let config = { Channel.reliable with Channel.dup = 1.0; reorder_window = 3 } in
  let ch = Channel.create ~config ~rng:(Rng.create 7) () in
  let records = stream 10 in
  Channel.send ch records;
  let delivered = drain ch in
  check_bool "every record exactly once" true (delivered = records);
  let s = Channel.stats ch in
  check_int "every transmission duplicated" 20 s.Channel.duplicated;
  check_bool "late copies discarded" true (s.Channel.stale_ignored > 0)

let test_channel_reorder_restores_order () =
  let config =
    { Channel.reliable with Channel.reorder = 0.9; reorder_window = 5 }
  in
  let ch = Channel.create ~config ~rng:(Rng.create 11) () in
  let records = stream 20 in
  Channel.send ch records;
  let delivered = drain ch in
  check_bool "order restored" true (delivered = records);
  let s = Channel.stats ch in
  check_bool "reordering happened" true (s.Channel.reordered > 0);
  check_bool "out-of-order buffer used" true (s.Channel.max_ooo > 0)

let test_channel_reset_forgets_connection_state () =
  let ch = Channel.create ~config:Channel.default ~rng:(Rng.create 3) () in
  Channel.send ch (stream 6);
  ignore (Channel.tick ch);
  check_bool "busy before reset" true (not (Channel.idle ch));
  Channel.reset ch;
  check_bool "idle after reset" true (Channel.idle ch);
  (* A fresh conversation starts at sequence zero on both sides. *)
  let records = stream 3 in
  Channel.send ch records;
  check_bool "post-reset delivery works" true (drain ch = records)

let test_channel_rejects_bad_config () =
  let bad cfg =
    try
      ignore (Channel.create ~config:cfg ~rng:(Rng.create 1) ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "loss = 1 rejected" true
    (bad { Channel.reliable with Channel.loss = 1.0 });
  check_bool "ack_loss = 1 rejected" true
    (bad { Channel.reliable with Channel.ack_loss = 1.0 });
  check_bool "negative prob rejected" true
    (bad { Channel.reliable with Channel.dup = -0.1 });
  check_bool "rto 0 rejected" true
    (bad { Channel.reliable with Channel.rto = 0 });
  check_bool "backoff < 1 rejected" true
    (bad { Channel.reliable with Channel.backoff = 0.5 });
  check_bool "max_rto < rto rejected" true
    (bad { Channel.reliable with Channel.rto = 8; max_rto = 4 })

let test_channel_deterministic_replay () =
  let run seed =
    let ch = Channel.create ~config:Channel.chaos ~rng:(Rng.create seed) () in
    Channel.send ch (stream 25);
    let d = drain ch in
    (d, Channel.stats ch)
  in
  let d1, s1 = run 99 in
  let d2, s2 = run 99 in
  check_bool "same deliveries" true (d1 = d2);
  check_bool "same stats" true (s1 = s2);
  let _, s3 = run 100 in
  check_bool "different seed, different schedule" true (s1 <> s3)

(* Any fault configuration (with liveness) delivers exactly the sent
   sequence, in order — the channel is a reliable FIFO link no matter what
   the network underneath does. *)
let prop_channel_is_reliable_fifo =
  QCheck.Test.make ~name:"channel delivers exactly once, in order" ~count:150
    QCheck.(pair (int_range 0 10_000) (int_range 0 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let config =
        {
          Channel.loss = 0.5 *. Rng.float rng;
          dup = 0.4 *. Rng.float rng;
          delay = Rng.float rng;
          max_delay = Rng.uniform rng ~lo:1 ~hi:6;
          reorder = Rng.float rng;
          reorder_window = Rng.uniform rng ~lo:1 ~hi:5;
          ack_loss = 0.5 *. Rng.float rng;
          rto = Rng.uniform rng ~lo:2 ~hi:6;
          backoff = 1. +. Rng.float rng;
          max_rto = Rng.uniform rng ~lo:8 ~hi:32;
        }
      in
      let ch = Channel.create ~config ~rng () in
      let records = stream n in
      (* Send in random-sized batches, ticking in between. *)
      let rec feed acc = function
        | [] -> acc
        | rest ->
          let k = Rng.uniform rng ~lo:1 ~hi:4 in
          let batch = List.filteri (fun i _ -> i < k) rest in
          let rest' = List.filteri (fun i _ -> i >= k) rest in
          Channel.send ch batch;
          let acc = List.rev_append (Channel.tick ch) acc in
          feed acc rest'
      in
      let acc = feed [] records in
      let delivered = List.rev_append (drain ch) acc |> List.rev in
      delivered = records)

(* --- Embedded system under faults -------------------------------------------- *)

let test_system_pump_under_chaos () =
  let sys =
    System.create ~secondaries:2 ~faults:(Channel.chaos, 2024)
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "writer" in
  for i = 1 to 30 do
    match
      System.update sys c (fun h -> Handle.put h (Printf.sprintf "k%d" (i mod 7))
                              (string_of_int i))
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected abort"
  done;
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (String.concat "; " es));
  (* Pinned: each channel draws the same stream split from the seed in site
     order, so a change in how channels are seeded changes these counts. *)
  let s = System.channel_stats sys in
  check_int "sent" 120 s.Channel.sent;
  check_int "delivered" 120 s.Channel.delivered;
  check_int "dropped" 99 s.Channel.dropped;
  check_int "duplicated" 69 s.Channel.duplicated;
  check_int "retransmitted" 286 s.Channel.retransmitted;
  (* Both replicas converged to the primary's state. *)
  for i = 0 to 1 do
    check_bool
      (Printf.sprintf "secondary %d converged" i)
      true
      (Mvcc.committed_state (System.secondary_db sys i)
      = Mvcc.committed_state (System.primary_db sys))
  done

(* The simulator truncates the primary log behind the propagation cursor
   every cycle, and only an audited run keeps commit lists. Under chaos the
   channels still hold what the log no longer does, and every secondary's
   state sequence must remain a prefix of the primary's (Theorem 3.1). *)
let test_sim_chaos_complete () =
  let params =
    {
      Lsr_workload.Params.default with
      Lsr_workload.Params.num_secondaries = 2;
      clients_per_secondary = 5;
      warmup = 10.;
      duration = 120.;
    }
  in
  let o =
    Lsr_experiments.Sim_system.run
      {
        (Lsr_experiments.Sim_system.config params Session.Weak ~seed:43) with
        Lsr_experiments.Sim_system.record_history = true;
        faults = Some Channel.chaos;
      }
  in
  let open Lsr_experiments.Sim_system in
  check_bool "faults fired" true
    (o.channels.dropped > 0 && o.channels.duplicated > 0);
  check_bool "refreshed" true (o.refresh_commits > 0);
  check_bool "audited" true (o.check_report <> None);
  Alcotest.(check (list string)) "complete" [] o.check_errors

(* A channel that loses all but one transmission in a billion (loss stays
   below 1, so the channel accepts it) cannot quiesce: pump gives up after
   its tick cap with a typed error. *)
let test_system_pump_stalls_typed () =
  let config =
    {
      Channel.reliable with
      Channel.loss = 1. -. 1e-9;
      ack_loss = 1. -. 1e-9;
      rto = 1;
      max_rto = 1;
    }
  in
  let sys =
    System.create ~secondaries:1 ~faults:(config, 5)
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "writer" in
  (match System.update sys c (fun h -> Handle.put h "k" "v") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected abort");
  match System.pump sys with
  | () -> Alcotest.fail "pump quiesced a channel that loses everything"
  | exception (System.Pump_stalled { ticks } as e) ->
    check_int "gave up one tick past the cap" (System.pump_tick_cap + 1) ticks;
    check_bool "registered printer" true
      (String.starts_with ~prefix:"System.Pump_stalled(" (Printexc.to_string e))

(* Regression: a strong-session read through a lossy channel must keep
   pumping (bounded retry) until the copy catches up, instead of failing
   after one round. Chaos drops and reorders aggressively, so a single
   propagate+refresh pass routinely leaves the required commit in flight. *)
let test_system_blocked_read_under_chaos () =
  let sys =
    System.create ~secondaries:2 ~faults:(Channel.chaos, 77)
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys ~secondary:0 "reader" in
  for i = 1 to 10 do
    (match
       System.update sys c (fun h -> Handle.put h "k" (string_of_int i))
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected abort");
    (* The session read must wait out the lossy channel and see the write
       it just committed — never an error, never a stale value. *)
    Alcotest.(check (option string))
      (Printf.sprintf "read-your-writes through chaos, round %d" i)
      (Some (string_of_int i))
      (System.read sys c (fun h -> Handle.get h "k"))
  done;
  (* Same path with an explicit fence to the newest commit. *)
  let newest = Session.seq (System.sessions sys) "reader" in
  Alcotest.(check (option string))
    "exact-fenced read through chaos" (Some "10")
    (System.read ~fence:(Session.Exact newest) sys c (fun h -> Handle.get h "k"));
  check_bool "reads actually blocked" true (System.blocked_reads sys > 0);
  check_bool "faults were injected, not disabled" true
    ((System.channel_stats sys).Channel.dropped > 0);
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (String.concat "; " es)

(* Crash a secondary mid-refresh — its refresher has consumed a start record
   whose commit is still in the channel — then recover and prove the system
   heals. *)
let test_system_crash_mid_refresh_recovers () =
  let sys =
    System.create ~secondaries:2 ~faults:(Channel.reliable, 5)
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "w" in
  (match System.update sys c (fun h -> Handle.put h "a" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "abort");
  (* Split a transaction's start and commit across channel batches by
     driving the primary directly: start+write, propagate, then commit,
     so secondary 0's refresher opens a refresh transaction whose commit
     record it has not seen. *)
  System.pump sys;
  let pdb = System.primary_db sys in
  let txn = Mvcc.begin_txn pdb in
  Mvcc.write pdb txn "b" (Some "2");
  ignore (System.propagate sys);
  ignore (System.refresh_one sys 0);
  ignore (System.refresh_one sys 0);
  (* The refresher at secondary 0 is now mid-refresh. Crash it. *)
  System.crash_secondary sys 0;
  (match Mvcc.commit pdb txn with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> Alcotest.fail "primary commit failed");
  (match System.update sys c (fun h -> Handle.put h "c" "3") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "abort");
  System.recover_secondary sys 0;
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check failed: %s" (String.concat "; " es));
  check_bool "recovered replica converged" true
    (Mvcc.committed_state (System.secondary_db sys 0)
    = Mvcc.committed_state (System.primary_db sys));
  check_bool "untouched replica converged" true
    (Mvcc.committed_state (System.secondary_db sys 1)
    = Mvcc.committed_state (System.primary_db sys))

(* --- Recovery from a stale backup + log replay -------------------------------- *)

(* The §3.4 path where a failed site does not get a fresh copy of the
   current primary state but rebuilds from an older checkpoint: restore the
   copy from a serialized backup taken at some earlier primary timestamp,
   reseed seq(DBsec) to that timestamp, replay the primary's log from the
   beginning through a fresh propagator, discarding transactions already
   reflected in the backup, and run the refresh machinery. The replayed
   refresh transactions re-execute in primary timestamp order, so the copy
   converges to the state and seq(DBsec) of a replica that never crashed.
   [System.recover_secondary] installs a quiesced copy of the current
   primary instead and never reads the log. *)

type backup = { state : string; ts : Timestamp.t }

let backup primary =
  {
    state = Mvcc.serialize primary;
    ts = Mvcc.latest_commit_ts primary;
  }

(* Start/commit pairs of the transactions whose commit lies beyond the
   backup point; everything else is either already in the backup or
   installed nothing. *)
let replay_filter ~after records =
  let wanted = Hashtbl.create 32 in
  List.iter
    (function
      | Wal.Commit { txn; ts; _ } when Timestamp.compare ts after > 0 ->
        Hashtbl.replace wanted txn ()
      | Wal.Start _ | Wal.Commit _ | Wal.Abort _ -> ())
    records;
  List.filter
    (function
      | Wal.Start { txn; _ } | Wal.Commit { txn; _ } -> Hashtbl.mem wanted txn
      | Wal.Abort _ -> false)
    records

(* Refresher steps and head commits, the refresher first, until neither
   moves (the order [System.refresh_one] fires them in). *)
let settle sec =
  let rec go () =
    match Secondary.refresher_step sec with
    | Secondary.Blocked_on_pending | Secondary.Idle ->
      if Secondary.commit_head sec >= 0 then go ()
    | Secondary.Started _ | Secondary.Dispatched _ | Secondary.Aborted _ -> go ()
  in
  go ()

(* Raises [Invalid_argument] inside [Wal.read_from] when the log has been
   truncated: replay would skip records, so a backup older than the
   truncation point cannot be recovered from. *)
let restore ~primary b =
  let fresh = Secondary.create ~db:(Mvcc.restore b.state) ~seq:b.ts () in
  let records = Propagation.poll (Propagation.create (Mvcc.wal primary)) in
  List.iter (Secondary.enqueue fresh) (replay_filter ~after:b.ts records);
  settle fresh;
  fresh

let update_primary primary writes =
  Fixtures.primary_update primary (fun db txn ->
      List.iter (fun (k, v) -> Mvcc.write db txn k v) writes)

let test_recovery_stale_backup_converges () =
  let primary = Fixtures.primary () in
  let live = Secondary.create () in
  let prop = Propagation.create (Mvcc.wal primary) in
  let feed () =
    List.iter (Secondary.enqueue live) (Propagation.poll prop);
    settle live
  in
  ignore (update_primary primary [ ("x", Some "1"); ("y", Some "1") ]);
  ignore (update_primary primary [ ("x", Some "2") ]);
  feed ();
  (* Checkpoint mid-stream, with one transaction still in flight: its start
     record precedes the backup point, its commit follows it. *)
  let inflight = Mvcc.begin_txn primary in
  Mvcc.write primary inflight "z" (Some "9");
  let b = backup primary in
  (match Mvcc.commit primary inflight with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> Alcotest.fail "in-flight commit failed");
  (* Post-backup traffic: overwrites, a delete, and an abort. *)
  ignore (update_primary primary [ ("y", Some "3"); ("w", Some "4") ]);
  ignore (update_primary primary [ ("x", None) ]);
  let doomed = Mvcc.begin_txn primary in
  Mvcc.write primary doomed "x" (Some "ghost");
  Mvcc.abort primary doomed;
  feed ();
  (* The crashed replica rebuilds from the stale backup + full log replay. *)
  let recovered = restore ~primary b in
  check_bool "state converged to the uncrashed replica" true
    (Mvcc.committed_state (Secondary.db recovered)
    = Mvcc.committed_state (Secondary.db live));
  check_bool "state equals the primary state" true
    (Mvcc.committed_state (Secondary.db recovered)
    = Mvcc.committed_state primary);
  check_int "seq(DBsec) equals the uncrashed replica's"
    (Secondary.seq_dbsec live)
    (Secondary.seq_dbsec recovered);
  check_int "no replay residue queued" 0
    (Secondary.update_queue_length recovered);
  check_int "the replay reached every commit record's digest" (-1)
    (Secondary.diverged recovered)

let test_recovery_without_new_commits_keeps_seq () =
  let primary = Fixtures.primary () in
  ignore (update_primary primary [ ("x", Some "1") ]);
  let b = backup primary in
  let recovered = restore ~primary b in
  check_int "seq stays at the backup point" b.ts
    (Secondary.seq_dbsec recovered);
  check_bool "state is the backup state" true
    (Mvcc.committed_state (Secondary.db recovered)
    = Mvcc.committed_state primary)

(* A recovered copy that lags behind an update nobody pumped yet is no
   divergence: it is audited against the primary only once refreshed up
   to the primary's latest commit, as a never-crashed site is never
   audited at all. *)
let test_recovered_site_may_lag () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  let put v =
    match System.update sys c (fun h -> Handle.put h "x" v) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update aborted"
  in
  put "1";
  System.pump sys;
  System.crash_secondary sys 0;
  System.recover_secondary sys 0;
  System.pump sys;
  put "3";
  let check msg =
    match System.check sys with
    | Ok () -> ()
    | Error es -> Alcotest.failf "%s: %s" msg (String.concat "; " es)
  in
  check "lagging recovered site";
  System.pump sys;
  check "caught-up recovered site"

let test_recovery_truncated_log_fails_loudly () =
  let primary = Fixtures.primary () in
  ignore (update_primary primary [ ("x", Some "1") ]);
  let b = backup primary in
  ignore (update_primary primary [ ("x", Some "2") ]);
  Wal.truncate_before (Mvcc.wal primary) (Wal.length (Mvcc.wal primary));
  check_bool "replay over a truncated log raises" true
    (try
       ignore (restore ~primary b);
       false
     with Invalid_argument _ -> true)

let test_replay_filter () =
  let records =
    [
      start_rec 1;
      commit_rec 1;
      start_rec 2;
      Wal.Abort { txn = 2; writes = 0 };
      start_rec 3;
      commit_rec 3;
      start_rec 4 (* still in flight: no commit *);
    ]
  in
  let kept = replay_filter ~after:1 records in
  check_bool "only the post-backup committed pair survives" true
    (kept = [ start_rec 3; commit_rec 3 ])

(* --- Randomized protocol harness ---------------------------------------------- *)

let trials =
  match Sys.getenv_opt "FAULT_TRIALS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 40)
  | None -> 40

let dump_history sys =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun txn -> Format.fprintf ppf "  %a@." History.pp_txn txn)
    (History.transactions (System.history sys));
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* One seeded trial: a random guarantee, 2-3 secondaries behind a random
   hostile channel configuration, a random interleaving of updates, reads,
   migrations, partial propagation/refresh, and exactly one crash/restart.
   Afterwards the drained system must pass the full checker battery and the
   channels must show the faults actually fired. *)
let run_trial seed =
  let rng = Rng.create seed in
  let guarantee =
    match Rng.uniform rng ~lo:0 ~hi:3 with
    | 0 -> Session.Weak
    | 1 -> Session.Prefix_consistent
    | 2 -> Session.Strong_session
    | _ -> Session.Strong
  in
  let config =
    {
      Channel.loss = 0.15 +. (0.25 *. Rng.float rng);
      dup = 0.3 *. Rng.float rng;
      delay = 0.5 *. Rng.float rng;
      max_delay = Rng.uniform rng ~lo:1 ~hi:5;
      reorder = 0.4 *. Rng.float rng;
      reorder_window = Rng.uniform rng ~lo:1 ~hi:4;
      ack_loss = 0.3 *. Rng.float rng;
      rto = Rng.uniform rng ~lo:2 ~hi:5;
      backoff = 1.5 +. (0.5 *. Rng.float rng);
      max_rto = Rng.uniform rng ~lo:12 ~hi:32;
    }
  in
  let secondaries = Rng.uniform rng ~lo:2 ~hi:3 in
  let sys =
    System.create ~secondaries ~faults:(config, seed lxor 0xFA17) ~guarantee ()
  in
  let nclients = Rng.uniform rng ~lo:2 ~hi:4 in
  let clients =
    Array.init nclients (fun i ->
        ref (System.connect sys (Printf.sprintf "c%d" i)))
  in
  let ops = Rng.uniform rng ~lo:35 ~hi:55 in
  let crash_at = Rng.uniform rng ~lo:8 ~hi:(ops / 2) in
  let recover_at = crash_at + Rng.uniform rng ~lo:2 ~hi:12 in
  let victim = ref (-1) in
  let key () = Printf.sprintf "k%d" (Rng.uniform rng ~lo:0 ~hi:9) in
  let live_secondary () =
    let rec pick () =
      let i = Rng.uniform rng ~lo:0 ~hi:(secondaries - 1) in
      if System.is_crashed sys i then pick () else i
    in
    pick ()
  in
  (try
     for op = 1 to ops do
       if op = crash_at then begin
         victim := Rng.uniform rng ~lo:0 ~hi:(secondaries - 1);
         System.crash_secondary sys !victim
       end;
       if op = recover_at then System.recover_secondary sys !victim;
       let c = clients.(Rng.uniform rng ~lo:0 ~hi:(nclients - 1)) in
       (* Sessions pinned to a crashed secondary migrate (load balancing /
          failover), carrying their ordering constraints with them. *)
       if System.is_crashed sys (System.client_secondary !c) then
         c := System.migrate sys !c (live_secondary ());
       (match Rng.uniform rng ~lo:0 ~hi:9 with
       | 0 | 1 | 2 | 3 ->
         let k = key () in
         let forced = Rng.bernoulli rng ~p:0.08 in
         ignore
           (System.update sys !c ~force_abort:forced (fun h ->
                if Rng.bernoulli rng ~p:0.15 then Handle.del h k
                else Handle.put h k (Printf.sprintf "v%d" op)))
       | 4 | 5 | 6 | 7 ->
         ignore (System.read sys !c (fun h -> Handle.get h (key ())))
       | 8 -> ignore (System.propagate sys)
       | _ -> ignore (System.refresh_all sys));
       (* Occasional extra channel ticks, so in-flight traffic advances at a
          rhythm decoupled from the refresh calls. *)
       if Rng.bernoulli rng ~p:0.3 then ignore (System.refresh_all sys)
     done;
     if !victim >= 0 && System.is_crashed sys !victim then
       System.recover_secondary sys !victim;
     System.pump sys
   with e ->
     Alcotest.failf "trial seed %d raised %s\nhistory:\n%s" seed
       (Printexc.to_string e) (dump_history sys));
  (match System.check sys with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "trial seed %d failed the checker:\n  %s\nhistory:\n%s" seed
      (String.concat "\n  " es) (dump_history sys));
  let s = System.channel_stats sys in
  if s.Channel.dropped > 0 && s.Channel.retransmitted = 0 then
    Alcotest.failf "trial seed %d: %d drops but no retransmissions" seed
      s.Channel.dropped;
  s

let test_randomized_protocol () =
  let base_seed = 0xF5_EED in
  let total = ref Channel.zero_stats in
  for i = 0 to trials - 1 do
    total := Channel.add_stats !total (run_trial (base_seed + i))
  done;
  (* Faults must demonstrably have fired across the trial set: a schedule
     that silently disabled injection would pass every check vacuously. *)
  check_bool "drops occurred across trials" true (!total.Channel.dropped > 0);
  check_bool "retransmissions occurred across trials" true
    (!total.Channel.retransmitted > 0);
  check_bool "duplicates occurred across trials" true
    (!total.Channel.duplicated > 0);
  check_bool "reordering occurred across trials" true
    (!total.Channel.reordered > 0)

(* --- Journeys under faults ------------------------------------------------- *)

(* Edge cases of the causal journeys the flight ring holds (docs/TRACING.md)
   that only the fault layer can provoke: aborted transactions,
   drop-then-retransmit ordering inside one journey, and journeys cut short
   by a crash whose state arrives via the §3.4 backup instead of refresh. *)

module Flight = Lsr_obs.Flight

let journey flight txn =
  match Flight.journey flight ~txn with
  | Ok j -> j
  | Error _ -> Alcotest.failf "no journey for txn %d" txn

let refresh_sites journey =
  List.filter_map
    (fun (e : Flight.event) ->
      match e.Flight.ev with Flight.Refresh_commit _ -> e.Flight.site | _ -> None)
    journey

let is_commit (e : Flight.event) =
  match e.Flight.ev with Flight.Commit _ -> true | _ -> false

let payload_stages journey =
  (* The stages that carry replicated work, as opposed to batch/refresh
     bookkeeping a start record alone can provoke. *)
  List.filter
    (fun (e : Flight.event) ->
      match e.Flight.ev with
      | Flight.Commit _ | Flight.Shipped _ | Flight.Refresh_commit _ -> true
      | _ -> false)
    journey

let commit_count flight =
  List.length
    (List.filter
       (fun txn -> List.exists is_commit (journey flight txn))
       (Flight.txns flight))

let test_journey_aborted_txn_invisible () =
  (* Algorithm 3.1 never ships aborted work: an aborted attempt may leave
     bookkeeping stages (its start record opens a batch and a refresh txn),
     but no commit, no shipped payload, no refresh commit — and it never
     counts as a registered commit. *)
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:1 ~flight ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "c0" in
  (match System.update sys c ~force_abort:true (fun h -> Handle.put h "k" "v") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forced abort committed");
  System.pump sys;
  check_int "no commit registered" 0 (commit_count flight);
  List.iter
    (fun txn ->
      check_bool "aborted journey carries no payload stage" true
        (payload_stages (journey flight txn) = []))
    (Flight.txns flight);
  (match System.update sys c (fun h -> Handle.put h "k" "v1") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "follow-up commit failed");
  System.pump sys;
  check_int "the committed successor registers" 1 (commit_count flight);
  let committed =
    List.filter
      (fun txn -> payload_stages (journey flight txn) <> [])
      (Flight.txns flight)
  in
  match committed with
  | [ id ] ->
    check_bool "the committed successor still gets a full journey" true
      (refresh_sites (journey flight id) = [ "secondary-0" ])
  | l -> Alcotest.failf "expected one committed txn, got %d" (List.length l)

let test_journey_drop_then_retransmit_order () =
  (* A journey that includes an injected drop must show the retransmission
     after it, and the refresh commit after that: the trace tells the true
     delivery story, not the first-attempt story. *)
  let config = { Channel.reliable with Channel.loss = 0.5; rto = 2 } in
  let witnessed = ref false in
  List.iter
    (fun seed ->
      if not !witnessed then begin
        let flight = Flight.create () in
        let sys =
          System.create ~secondaries:1 ~faults:(config, seed) ~flight
            ~guarantee:Session.Strong_session ()
        in
        let c = System.connect sys "c0" in
        for i = 1 to 15 do
          ignore
            (System.update sys c (fun h ->
                 Handle.put h (Printf.sprintf "k%d" i) "v"));
          ignore (System.propagate sys);
          ignore (System.refresh_all sys)
        done;
        System.pump sys;
        check_bool "the ring kept every event" true
          (Flight.events_noted flight <= Flight.capacity flight);
        List.iter
          (fun txn ->
            let j = journey flight txn in
            let indices p =
              List.mapi (fun i e -> (i, e)) j
              |> List.filter_map (fun (i, (e : Flight.event)) ->
                     if p e.Flight.ev then Some i else None)
            in
            let fault name = function
              | Flight.Chan_fault { fault; _ } -> fault = name
              | _ -> false
            in
            let drops = indices (fault "dropped") in
            let retrans = indices (fault "retransmitted") in
            let commits =
              indices (function Flight.Refresh_commit _ -> true | _ -> false)
            in
            match (drops, retrans) with
            | d :: _, _ :: _ -> (
              (* A dropped record is only ever delivered by retransmission,
                 so some retransmission must follow the drop, and the
                 journey's refresh commit must follow that. *)
              match List.find_opt (fun r -> r > d) retrans with
              | None ->
                Alcotest.fail "drop with no subsequent retransmission"
              | Some r ->
                witnessed := true;
                check_bool "journey still reaches its refresh commit" true
                  (match List.rev commits with
                  | last :: _ -> last > r
                  | [] -> false))
            | _ -> ())
          (Flight.txns flight)
      end)
    [ 0xD20; 0xD21; 0xD22 ];
  check_bool "a dropped-then-retransmitted journey was provoked" true
    !witnessed

let test_journey_spans_crash_recovery () =
  (* Commits that reach a site through the §3.4 recovery backup must NOT
     grow fabricated refresh events there; commits after recovery resume
     full journeys at every site. *)
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:2 ~flight ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "c0" in
  let commit k v =
    match System.update sys c (fun h -> Handle.put h k v) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  commit "a" "1";
  ignore (System.propagate sys);
  System.crash_secondary sys 0;
  commit "a" "2";
  System.recover_secondary sys 0;
  commit "a" "3";
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "checker: %s" (String.concat "; " es));
  (* The §4 recovery dummy transaction leaves bookkeeping-only traces;
     only the three real commits matter here. *)
  let committed =
    List.filter
      (fun txn -> List.exists is_commit (journey flight txn))
      (Flight.txns flight)
  in
  match committed with
  | [ t1; t2; t3 ] ->
    let sites t = List.sort_uniq compare (refresh_sites (journey flight t)) in
    check_bool "pre-crash commit refreshed only at the surviving site" true
      (sites t1 = [ "secondary-1" ]);
    check_bool "mid-crash commit arrived at site 0 via backup, not refresh"
      true
      (sites t2 = [ "secondary-1" ]);
    check_bool "post-recovery commit refreshes at both sites again" true
      (sites t3 = [ "secondary-0"; "secondary-1" ])
  | l -> Alcotest.failf "expected three traced txns, got %d" (List.length l)

(* --- Replication moves -------------------------------------------------------- *)

(* A second crash of a crashed site changes nothing: one crash event in
   the flight recorder, and the site recovers as from one crash. *)
let test_crash_of_crashed_site_is_noop () =
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:2 ~faults:(Lsr_core.Channel.default, 3) ~flight
      ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys ~secondary:0 "c0" in
  ignore (System.update sys c (fun h -> Handle.put h "a" "1"));
  ignore (System.propagate sys);
  System.crash_secondary sys 1;
  System.crash_secondary sys 1;
  let crashes () =
    match Flight.parse_bundle (Flight.bundle_json flight ~config:(Lsr_obs.Json.Obj [])) with
    | Ok b ->
      Array.fold_left
        (fun n e -> match e.Flight.ev with Flight.Crash -> n + 1 | _ -> n)
        0 b.Flight.window
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "one crash event" 1 (crashes ());
  System.recover_secondary sys 1;
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "checker: %s" (String.concat "; " es)

(* A site recovered while a primary transaction is in flight: the
   transaction's start record was shipped before the recovery (to the live
   site only), its commit record after it, to both. The recovered site must
   apply the commit all the same. *)
let test_recover_during_primary_txn () =
  let sys =
    System.create ~secondaries:2 ~guarantee:Session.Strong_session ()
  in
  let rs = System.replica_set sys in
  let c = System.connect sys ~secondary:0 "c0" in
  ignore (System.update sys c (fun h -> Handle.put h "a" "0"));
  let r =
    System.update sys c (fun h ->
        Handle.put h "a" "1";
        ignore (Replica_set.fire rs Replica_set.Poll);
        ignore (Replica_set.fire rs (Replica_set.Crash 1));
        ignore (Replica_set.fire rs (Replica_set.Recover 1)))
  in
  check_bool "committed" true (Result.is_ok r);
  System.pump sys;
  Alcotest.(check (option string))
    "recovered site has the commit" (Some "1")
    (Mvcc.read_at (System.secondary_db sys 1)
       (Secondary.seq_dbsec (Replica_set.secondary rs 1))
       "a");
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.failf "checker: %s" (String.concat "; " es)

(* Random interleavings of the replica set's enabled moves, with updates,
   reads, crashes and recoveries mixed in, on 2 sites behind fault
   channels. Every enabled move but a channel tick changes something, and
   after a final pump the end-of-run verdict is clean. *)
let prop_random_moves_stay_correct =
  let step = QCheck.Gen.(pair (int_range 0 10) (int_range 0 99)) in
  QCheck.Test.make ~name:"random enabled moves, crashes and recoveries"
    ~count:150
    QCheck.(pair (int_range 0 10_000) (make Gen.(list_size (int_range 0 80) step)))
    (fun (seed, steps) ->
      let sys =
        System.create ~secondaries:2 ~faults:(Lsr_core.Channel.default, seed)
          ~guarantee:Session.Strong_session ()
      in
      let rs = System.replica_set sys in
      let clients =
        Array.init 2 (fun i ->
            System.connect sys ~secondary:i (Printf.sprintf "c%d" i))
      in
      List.iter
        (fun (kind, n) ->
          let c = clients.(n mod 2) in
          match kind with
          | 0 | 1 ->
            ignore
              (System.update sys c (fun h ->
                   Handle.put h (Printf.sprintf "k%d" (n mod 5)) (string_of_int n)))
          | 2 -> ignore (System.read_nowait sys c (fun h -> Handle.get h "k0"))
          | 3 -> ignore (Replica_set.fire rs (Replica_set.Crash (n mod 2)))
          | 4 -> ignore (Replica_set.fire rs (Replica_set.Recover (n mod 2)))
          | 5 ->
            (* A crash and a recovery between the update's start and its
               commit, after its start record was shipped. *)
            ignore
              (System.update sys c (fun h ->
                   Handle.put h (Printf.sprintf "k%d" (n mod 5)) (string_of_int n);
                   ignore (Replica_set.fire rs Replica_set.Poll);
                   ignore (Replica_set.fire rs (Replica_set.Crash (n mod 2)));
                   ignore (Replica_set.fire rs (Replica_set.Recover (n mod 2)))))
          | _ -> (
            match Replica_set.enabled rs with
            | [] -> ()
            | moves -> (
              let move = List.nth moves (n mod List.length moves) in
              match (move, Replica_set.fire rs move) with
              | Replica_set.Deliver _, _ -> ()
              | _, Replica_set.Nothing ->
                QCheck.Test.fail_report "an enabled move did nothing"
              | _ -> ())))
        steps;
      for i = 0 to 1 do
        if System.is_crashed sys i then System.recover_secondary sys i
      done;
      System.pump sys;
      match Replica_set.check rs with
      | [], _ -> true
      | es, _ -> QCheck.Test.fail_report (String.concat "; " es))

(* --- Suite -------------------------------------------------------------------- *)

let () =
  Alcotest.run "lsr_faults"
    [
      ( "channel",
        [
          Alcotest.test_case "reliable fifo" `Quick test_channel_reliable_fifo;
          Alcotest.test_case "lossy exactly-once in-order" `Quick
            test_channel_lossy_exactly_once_in_order;
          Alcotest.test_case "duplicates suppressed" `Quick
            test_channel_duplicates_suppressed;
          Alcotest.test_case "reordering restored" `Quick
            test_channel_reorder_restores_order;
          Alcotest.test_case "reset" `Quick
            test_channel_reset_forgets_connection_state;
          Alcotest.test_case "config validation" `Quick
            test_channel_rejects_bad_config;
          Alcotest.test_case "deterministic replay" `Quick
            test_channel_deterministic_replay;
          QCheck_alcotest.to_alcotest prop_channel_is_reliable_fifo;
        ] );
      ( "system",
        [
          Alcotest.test_case "pump under chaos" `Quick
            test_system_pump_under_chaos;
          Alcotest.test_case "pump stalls with a typed error" `Quick
            test_system_pump_stalls_typed;
          Alcotest.test_case "blocked read under chaos" `Quick
            test_system_blocked_read_under_chaos;
          Alcotest.test_case "crash mid-refresh recovers" `Quick
            test_system_crash_mid_refresh_recovers;
          Alcotest.test_case "simulator under chaos stays complete" `Quick
            test_sim_chaos_complete;
          Alcotest.test_case "crash of a crashed site is a no-op" `Quick
            test_crash_of_crashed_site_is_noop;
          Alcotest.test_case "recover during a primary transaction" `Quick
            test_recover_during_primary_txn;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "stale backup + replay converges" `Quick
            test_recovery_stale_backup_converges;
          Alcotest.test_case "no new commits keeps seq" `Quick
            test_recovery_without_new_commits_keeps_seq;
          Alcotest.test_case "a recovered site may lag" `Quick
            test_recovered_site_may_lag;
          Alcotest.test_case "truncated log fails loudly" `Quick
            test_recovery_truncated_log_fails_loudly;
          Alcotest.test_case "replay filter" `Quick test_replay_filter;
        ] );
      ( "lineage-journeys",
        [
          Alcotest.test_case "aborted txns invisible" `Quick
            test_journey_aborted_txn_invisible;
          Alcotest.test_case "drop then retransmit order" `Quick
            test_journey_drop_then_retransmit_order;
          Alcotest.test_case "spans crash/recovery" `Quick
            test_journey_spans_crash_recovery;
        ] );
      ( "protocol",
        [
          Alcotest.test_case
            (Printf.sprintf "randomized fault schedules (%d trials)" trials)
            `Slow test_randomized_protocol;
          QCheck_alcotest.to_alcotest prop_random_moves_stay_correct;
        ] );
    ]
