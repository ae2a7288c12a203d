(* Tests for the replication middleware (lsr_core): update propagation
   (Algorithm 3.1), secondary refresh (Algorithms 3.2/3.3) including the
   ordering relationships 1-3 of §3.1, session guarantees (§4), the history
   checker (Definitions 2.1/2.2, Theorems 3.1/3.2) and the embedded
   replicated system. *)

open Lsr_storage
open Lsr_core

let check_bool = Alcotest.(check bool)

(* The read's threshold as a driver evaluates it at submission. *)
let required ?fence ?(clock = Session.clock_create ()) ?(now = 0.) mgr ~label =
  Session.read_threshold ?fence mgr ~label
    ~floor:(Session.fence_floor ?fence clock ~now)

let may_read ?fence mgr ~label ~seq_dbsec =
  Timestamp.compare (required ?fence mgr ~label) seq_dbsec <= 0
let check_int = Alcotest.(check int)
let check_str_opt = Alcotest.(check (option string))

let commit_exn db txn =
  match Mvcc.commit db txn with
  | Mvcc.Committed ts -> ts
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected abort"

(* Run an update transaction at a primary, returning its commit ts. *)
let update_at primary writes =
  Fixtures.primary_update primary (fun db txn ->
      List.iter (fun (k, v) -> Mvcc.write db txn k v) writes)

(* --- Propagation (Algorithm 3.1) ------------------------------------------------ *)

let test_propagation_commit_carries_updates () =
  let primary = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal primary) in
  ignore (update_at primary [ ("x", Some "1"); ("y", Some "2") ]);
  match Propagation.poll prop with
  | [ Wal.Start _; Wal.Commit { updates; _ } ] ->
    check_int "both updates shipped" 2 (List.length updates)
  | records ->
    Alcotest.failf "unexpected records: %d" (List.length records)

let test_propagation_start_before_commit () =
  let db = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal db) in
  (* Begin a transaction but do not commit yet: its start record must
     propagate immediately (liveness, §3.2). *)
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "x" (Some "1");
  (match Propagation.poll prop with
  | [ Wal.Start { txn = id; _ } ] ->
    check_int "start of in-flight txn" (Mvcc.txn_id txn) id
  | _ -> Alcotest.fail "expected exactly the start record");
  check_int "one in flight" 1 (Propagation.in_flight prop);
  ignore (commit_exn db txn);
  (match Propagation.poll prop with
  | [ Wal.Commit _ ] -> ()
  | _ -> Alcotest.fail "expected the commit record");
  check_int "none in flight" 0 (Propagation.in_flight prop)

let test_propagation_abort_discards_updates () =
  let db = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal db) in
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "x" (Some "1");
  Mvcc.abort db txn;
  match Propagation.poll prop with
  | [ Wal.Start _; Wal.Abort { writes; _ } ] ->
    check_int "no wasted work shipped by default" 0 writes
  | _ -> Alcotest.fail "expected start + abort"

(* A propagator whose cursor lies below the log's truncation point has lost
   records; polling must raise instead of silently resuming at the cut. *)
let test_propagation_truncated_log_fails_loudly () =
  let primary = Fixtures.primary () in
  ignore (update_at primary [ ("x", Some "1") ]);
  ignore (update_at primary [ ("y", Some "2") ]);
  let late = Propagation.create (Mvcc.wal primary) in
  Wal.truncate_before (Mvcc.wal primary) (Wal.length (Mvcc.wal primary));
  Alcotest.check_raises "poll below the cut"
    (Invalid_argument
       (Printf.sprintf "Wal.read_from: offset 0 below truncation point %d"
          (Wal.length (Mvcc.wal primary))))
    (fun () -> ignore (Propagation.poll late))

let test_propagation_ship_aborted () =
  let db = Fixtures.primary () in
  let prop = Propagation.create ~ship_aborted:true (Mvcc.wal db) in
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "x" (Some "1");
  Mvcc.write db txn "y" (Some "2");
  Mvcc.abort db txn;
  match Propagation.poll prop with
  | [ Wal.Start _; Wal.Abort { writes; _ } ] ->
    check_int "eager mode ships aborted work" 2 writes
  | _ -> Alcotest.fail "expected start + abort"

let test_propagation_squashes_rewrites () =
  let primary = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal primary) in
  ignore
    (Fixtures.primary_update primary (fun db txn ->
         Mvcc.write db txn "x" (Some "first");
         Mvcc.write db txn "x" (Some "second")));
  match Propagation.poll prop with
  | [ Wal.Start _; Wal.Commit { updates; _ } ] -> (
    match updates with
    | [ { Wal.key = "x"; value = Some "second" } ] -> ()
    | _ -> Alcotest.fail "updates not squashed to last write")
  | _ -> Alcotest.fail "unexpected records"

let test_propagation_squash_keeps_first_write_position () =
  (* Squashing rewrites of a key keeps the key at its first-write position in
     the update list while carrying the last-written value — the refresh
     transaction replays the list verbatim, so both halves matter. *)
  let primary = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal primary) in
  ignore
    (Fixtures.primary_update primary (fun db txn ->
         Mvcc.write db txn "x" (Some "first");
         Mvcc.write db txn "y" (Some "only");
         Mvcc.write db txn "x" (Some "last")));
  match Propagation.poll prop with
  | [ Wal.Start _; Wal.Commit { updates; _ } ] ->
    let pairs = List.map (fun { Wal.key; value } -> (key, value)) updates in
    Alcotest.(check (list (pair string (option string))))
      "x stays first with its last value"
      [ ("x", Some "last"); ("y", Some "only") ]
      pairs
  | _ -> Alcotest.fail "unexpected records"

let test_propagation_interleaved_txns_isolated () =
  (* Two transactions interleaved at the primary (their writes alternate
     and the later start commits first): each commit record carries exactly
     its own transaction's updates, squashed. *)
  let db = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal db) in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  Mvcc.write db t1 "k" (Some "from-1");
  Mvcc.write db t2 "k2" (Some "from-2");
  Mvcc.write db t1 "only-1" (Some "a");
  Mvcc.write db t2 "k2" (Some "again-2");
  ignore (commit_exn db t2);
  ignore (commit_exn db t1);
  let commits =
    List.filter_map
      (function
        | Wal.Commit { txn; updates; _ } ->
          Some (txn, List.map (fun { Wal.key; value } -> (key, value)) updates)
        | Wal.Start _ | Wal.Abort _ -> None)
      (Propagation.poll prop)
  in
  Alcotest.(check (list (pair int (list (pair string (option string))))))
    "no cross-contamination between interleaved txns"
    [
      (Mvcc.txn_id t2, [ ("k2", Some "again-2") ]);
      (Mvcc.txn_id t1, [ ("k", Some "from-1"); ("only-1", Some "a") ]);
    ]
    commits

let test_propagation_order_is_log_order () =
  let primary = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal primary) in
  let ts1 = update_at primary [ ("a", Some "1") ] in
  let ts2 = update_at primary [ ("b", Some "2") ] in
  check_bool "ts1 < ts2" true (Timestamp.compare ts1 ts2 < 0);
  let commits =
    List.filter_map
      (function
        | Wal.Commit { ts; _ } -> Some ts
        | Wal.Start _ | Wal.Abort _ -> None)
      (Propagation.poll prop)
  in
  Alcotest.(check (list int)) "commit records in ts order" [ ts1; ts2 ] commits

let test_propagation_cursor_position () =
  let primary = Fixtures.primary () in
  let prop = Propagation.create (Mvcc.wal primary) in
  ignore (update_at primary [ ("a", Some "1") ]);
  ignore (Propagation.poll prop);
  check_int "cursor at log end" (Wal.length (Mvcc.wal primary))
    (Propagation.position prop)

(* --- Secondary refresh (Algorithms 3.2/3.3) -------------------------------------- *)

(* Feed the propagated records of [actions] into a fresh secondary. *)
let replicate_to_secondary records =
  let sec = Secondary.create () in
  List.iter (Secondary.enqueue sec) records;
  sec

let records_of primary =
  Propagation.poll (Propagation.create (Mvcc.wal primary))

(* Refresher steps and head commits, the refresher first, until neither
   moves (the order [System.refresh_one] fires them in). Returns the
   refresh transactions committed. *)
let drain sec =
  let rec go committed =
    match Secondary.refresher_step sec with
    | Secondary.Blocked_on_pending | Secondary.Idle ->
      if Secondary.commit_head sec >= 0 then go (committed + 1) else committed
    | Secondary.Started _ | Secondary.Dispatched _ | Secondary.Aborted _ ->
      go committed
  in
  go 0

let test_refresh_applies_updates () =
  let primary = Fixtures.primary () in
  ignore (update_at primary [ ("x", Some "1") ]);
  ignore (update_at primary [ ("y", Some "2") ]);
  let sec = replicate_to_secondary (records_of primary) in
  check_int "two refresh commits" 2 (drain sec);
  let db = Secondary.db sec in
  Alcotest.(check (list (pair string string)))
    "secondary state equals primary"
    (Mvcc.committed_state primary)
    (Mvcc.committed_state db)

let test_refresh_sets_seq_dbsec () =
  let primary = Fixtures.primary () in
  let ts = update_at primary [ ("x", Some "1") ] in
  let sec = replicate_to_secondary (records_of primary) in
  Alcotest.(check int) "initially zero" Timestamp.zero (Secondary.seq_dbsec sec);
  ignore (drain sec);
  Alcotest.(check int) "seq(DBsec) = primary commit ts" ts
    (Secondary.seq_dbsec sec)

let test_refresh_abort_record () =
  let db = Fixtures.primary () in
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "x" (Some "junk");
  Mvcc.abort db txn;
  ignore (update_at db [ ("y", Some "ok") ]);
  let sec = replicate_to_secondary (records_of db) in
  check_int "only the committed txn refreshes" 1 (drain sec);
  check_str_opt "aborted write never applied" None
    (Mvcc.read_at (Secondary.db sec)
       (Mvcc.latest_commit_ts (Secondary.db sec))
       "x")

let test_refresher_blocks_start_on_pending () =
  (* Sequential primary txns: T1 commits before T2 starts. The refresher
     must not start R2 while R1's commit is pending (relationship 2). *)
  let primary = Fixtures.primary () in
  ignore (update_at primary [ ("x", Some "1") ]);
  ignore (update_at primary [ ("y", Some "2") ]);
  let sec = replicate_to_secondary (records_of primary) in
  (* Process T1's start and commit records but do not run the applicator. *)
  (match Secondary.refresher_step sec with
  | Secondary.Started _ -> ()
  | _ -> Alcotest.fail "expected Started for T1");
  (match Secondary.refresher_step sec with
  | Secondary.Dispatched _ -> ()
  | _ -> Alcotest.fail "expected Dispatched for T1");
  (* T2's start record is next, but R1 has not committed: blocked. *)
  (match Secondary.refresher_step sec with
  | Secondary.Blocked_on_pending -> ()
  | _ -> Alcotest.fail "expected Blocked_on_pending for T2's start");
  check_int "pending holds R1" 1 (Secondary.pending_queue_length sec);
  (* Commit R1; then T2 can start. *)
  check_bool "R1 commits" true (Secondary.commit_head sec >= 0);
  match Secondary.refresher_step sec with
  | Secondary.Started _ -> ()
  | _ -> Alcotest.fail "T2's refresh should start after R1 commits"

let test_applicators_commit_in_primary_order () =
  (* Two concurrent primary txns with disjoint writesets: their refresh
     transactions run concurrently but must commit in primary commit order
     (relationship 3), even if the later one finishes its work first. *)
  let db = Fixtures.primary () in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  Mvcc.write db t1 "x" (Some "t1");
  Mvcc.write db t1 "x2" (Some "t1");
  Mvcc.write db t2 "y" (Some "t2");
  let ts1 = commit_exn db t1 in
  let ts2 = commit_exn db t2 in
  let sec = replicate_to_secondary (records_of db) in
  (* Both starts arrive before both commits (concurrent txns), so the
     refresher dispatches two refresh transactions. *)
  let rec dispatch_all n =
    match Secondary.refresher_step sec with
    | Secondary.Started _ -> dispatch_all n
    | Secondary.Dispatched _ -> dispatch_all (n + 1)
    | Secondary.Idle -> n
    | Secondary.Aborted _ | Secondary.Blocked_on_pending ->
      Alcotest.fail "unexpected refresher outcome"
  in
  check_int "two dispatched" 2 (dispatch_all 0);
  check_int "R2 waits behind R1" 2 (Secondary.pending_queue_length sec);
  (* R2's updates are already handed over, but only the head commits. *)
  check_int "pending tail is R2" ts2 (Secondary.pending_tail sec);
  check_int "R1 commits" (Mvcc.txn_id t1) (Secondary.commit_head sec);
  Alcotest.(check int) "R1 commits first" ts1 (Secondary.seq_dbsec sec);
  check_int "R2 commits" (Mvcc.txn_id t2) (Secondary.commit_head sec);
  Alcotest.(check int) "R2 commits second" ts2 (Secondary.seq_dbsec sec);
  check_int "nothing left to commit" (-1) (Secondary.commit_head sec);
  check_int "empty pending tail is seq(DBsec)" ts2 (Secondary.pending_tail sec)

let test_refresh_commit_order_matches_primary_random () =
  (* Randomized version of Lemma 3.3: whatever the interleaving of disjoint
     primary transactions, refresh commits occur in primary commit order. *)
  let primary = Fixtures.primary () in
  for i = 1 to 20 do
    ignore (update_at primary [ (Printf.sprintf "k%d" i, Some (string_of_int i)) ])
  done;
  let sec = replicate_to_secondary (records_of primary) in
  check_int "every commit refreshed" 20 (drain sec);
  check_int "every commit record's digest reached" (-1) (Secondary.diverged sec);
  check_bool "same state" true
    (Mvcc.same_state primary
       ~at:(Mvcc.latest_commit_ts primary)
       (Secondary.db sec))

let test_commit_without_start_rejected () =
  let sec = Secondary.create () in
  Secondary.enqueue sec
    (Wal.Commit { txn = 99; ts = 5; updates = []; digest = 0 });
  Alcotest.check_raises "protocol violation"
    (Secondary.Commit_without_start { txn = 99 })
    (fun () -> ignore (Secondary.refresher_step sec))

let test_reseed_seq () =
  let sec = Secondary.create ~seq:42 () in
  Alcotest.(check int) "reseeded" 42 (Secondary.seq_dbsec sec);
  check_int "empty pending tail is the seed" 42 (Secondary.pending_tail sec)

let test_commit_head_names_primary_txn () =
  let primary = Fixtures.primary () in
  let ts = update_at primary [ ("x", Some "1") ] in
  let txn =
    match records_of primary with
    | Wal.Start { txn; _ } :: _ -> txn
    | _ -> Alcotest.fail "log does not open with a start record"
  in
  let sec = Secondary.create () in
  List.iter (Secondary.enqueue sec) (records_of primary);
  ignore (Secondary.refresher_step sec);
  ignore (Secondary.refresher_step sec);
  check_int "returns the primary txn id" txn (Secondary.commit_head sec);
  check_int "seq(DBsec) is its primary commit ts" ts (Secondary.seq_dbsec sec);
  check_int "nothing left" (-1) (Secondary.commit_head sec);
  check_int "seq(DBsec) unchanged" ts (Secondary.seq_dbsec sec)

let test_applicator_dispatch_scales () =
  (* Regression for the O(n^2) applicator bookkeeping (list append on every
     dispatch, whole-list rebuild on every commit): tens of thousands of
     transactions all in flight before any commit must drain in linear time.
     The quadratic version burns minutes here; the budget is generous enough
     to never flake on a slow machine. *)
  let n = 50_000 in
  let sec = Secondary.create () in
  for i = 1 to n do
    Secondary.enqueue sec (Wal.Start { txn = i; ts = i })
  done;
  for i = 1 to n do
    Secondary.enqueue sec
      (Wal.Commit
         {
           txn = i;
           ts = n + i;
           updates = [ { Wal.key = Printf.sprintf "k%d" i; value = Some "v" } ];
           digest = 0;
         })
  done;
  let t0 = Sys.time () in
  let committed = drain sec in
  let elapsed = Sys.time () -. t0 in
  check_int "all refresh txns committed" n committed;
  check_int "no applicators left" 0
    (List.length (Secondary.active_applicators sec));
  check_int "seq(DBsec) at last primary ts" (2 * n) (Secondary.seq_dbsec sec);
  check_bool
    (Printf.sprintf "drained %d applicators in %.2fs cpu (budget 10s)" n elapsed)
    true (elapsed < 10.)

(* Randomized verification of the §3.1 ordering relationships 1 and 2 at
   the timestamp level (Lemmas 3.1/3.2): for a random mix of concurrent and
   sequential primary transactions, replay at a secondary and compare the
   LOCAL start/commit timestamps of refresh transactions against the
   PRIMARY start/commit relationships. *)
let prop_refresh_ordering_relationships =
  let gen =
    (* per txn: overlap-with-next flag *)
    QCheck.Gen.(list_size (int_range 2 8) bool)
  in
  QCheck.Test.make ~name:"relationships 1-3 hold at refresh (Lemmas 3.1-3.3)"
    ~count:200 (QCheck.make gen) (fun overlaps ->
      let db = Fixtures.primary () in
      (* Build a schedule: each transaction either commits before the next
         starts (sequential) or overlaps it (concurrent, disjoint keys). *)
      let stamps = ref [] in
      let rec build i pending = function
        | [] ->
          List.iter
            (fun (txn, start) ->
              let c = commit_exn db txn in
              stamps := (start, c) :: !stamps)
            (List.rev pending)
        | overlap :: rest ->
          let txn = Mvcc.begin_txn db in
          let start = Mvcc.start_ts txn in
          Mvcc.write db txn (Printf.sprintf "k%d" i) (Some (string_of_int i));
          if overlap then build (i + 1) ((txn, start) :: pending) rest
          else begin
            List.iter
              (fun (t, s) ->
                let c = commit_exn db t in
                stamps := (s, c) :: !stamps)
              (List.rev ((txn, start) :: pending));
            build (i + 1) [] rest
          end
      in
      build 0 [] overlaps;
      let primary_stamps = List.rev !stamps in
      (* Replay at a secondary, recording local start and commit stamps via
         the applicators and the store's latest commit. *)
      let local = Hashtbl.create 16 in
      (* primary commit ts -> (local start, local commit) *)
      let sec = Secondary.create () in
      List.iter (Secondary.enqueue sec) (records_of db);
      (* Each dispatched refresh commits at once, the head of the pending
         queue; its local start is read off the queue just before. *)
      let rec drive () =
        match Secondary.refresher_step sec with
        | Secondary.Dispatched _ ->
          let head = List.hd (Secondary.active_applicators sec) in
          let local_start = Mvcc.start_ts (Secondary.applicator_txn head) in
          ignore (Secondary.commit_head sec);
          Hashtbl.replace local (Secondary.seq_dbsec sec)
            (local_start, Mvcc.latest_commit_ts (Secondary.db sec));
          drive ()
        | Secondary.Started _ | Secondary.Aborted _ -> drive ()
        | Secondary.Blocked_on_pending | Secondary.Idle -> ()
      in
      drive ();
      (* Check all three relationships for every pair, using the secondary's
         own timestamps:
         rel 1: startp(T1) < commitp(T2) => starts(R1) < commits(R2)
         rel 2: commitp(T1) < startp(T2) => commits(R1) < starts(R2)
         rel 3: commitp(T1) < commitp(T2) => commits(R1) < commits(R2) *)
      let ok = ref true in
      List.iter
        (fun (s1, c1) ->
          List.iter
            (fun (s2, c2) ->
              match (Hashtbl.find_opt local c1, Hashtbl.find_opt local c2) with
              | Some (ls1, lc1), Some (ls2, lc2) ->
                if s1 < c2 && not (ls1 < lc2) then ok := false;
                if c1 < s2 && not (lc1 < ls2) then ok := false;
                if c1 < c2 && not (lc1 < lc2) then ok := false
              | _ -> ok := false)
            primary_stamps)
        primary_stamps;
      !ok)

(* Exhaustive interleaving exploration (bounded model checking): for a fixed
   primary schedule, enumerate EVERY order in which the replica set's
   enabled moves can fire at one secondary. Completeness (Theorem 3.1) must
   hold on every path, and no path may raise Refresh_conflict. Each path
   re-executes the schedule from scratch, firing the [n]th enabled move at
   each point. *)
let test_exhaustive_interleavings () =
  (* Schedule: T1 to T4 concurrent with disjoint writesets, then T5
     sequential after them, rewriting T1's key — exercises both the
     pending-queue blocking and dispatches racing commits. Only the head of
     the pending queue commits, so the paths are the orders in which four
     dispatches and four commits interleave (14), then T5's. *)
  let build () =
    let sys = System.create ~guarantee:Session.Weak () in
    let db = Replica_set.primary (System.replica_set sys) in
    let txns = List.map (fun _ -> Mvcc.begin_txn db) [ 1; 2; 3; 4 ] in
    List.iteri
      (fun i txn -> Mvcc.write db txn (Printf.sprintf "k%d" i) (Some "t"))
      txns;
    List.iter (fun txn -> ignore (commit_exn db txn)) txns;
    ignore (update_at db [ ("k0", Some "t5"); ("z", Some "t5") ]);
    System.replica_set sys
  in
  let reference = Mvcc.committed_state (Replica_set.primary (build ())) in
  (* Run one path guided by [choices]; returns [`Done (commits, state)] when
     no move is enabled, or [`Need_choice n] when the guidance ran out at a
     point with [n] enabled moves. *)
  let run_path choices =
    let rs = build () in
    let commits = ref [] in
    let rec go choices =
      match (Replica_set.enabled rs, choices) with
      | [], _ ->
        `Done
          ( List.rev !commits,
            Mvcc.committed_state (Secondary.db (Replica_set.secondary rs 0)) )
      | moves, [] -> `Need_choice (List.length moves)
      | moves, choice :: rest ->
        (match Replica_set.fire rs (List.nth moves choice) with
        | Replica_set.Committed ts -> commits := ts :: !commits
        | Replica_set.Nothing -> Alcotest.fail "an enabled move did nothing"
        | _ -> ());
        go rest
    in
    go choices
  in
  (* DFS over choice sequences. *)
  let explored = ref 0 in
  let rec explore prefix =
    match run_path prefix with
    | `Done (commits, final) ->
      incr explored;
      check_bool "refresh commits in primary order" true
        (List.sort Timestamp.compare commits = commits);
      check_int "every commit refreshed" 5 (List.length commits);
      Alcotest.(check (list (pair string string)))
        "final state matches primary" reference final
    | `Need_choice n ->
      for i = 0 to n - 1 do
        explore (prefix @ [ i ])
      done
  in
  explore [];
  check_bool
    (Printf.sprintf "explored many interleavings (%d)" !explored)
    true (!explored >= 10)

let test_pretty_printers () =
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    n = 0 || scan 0
  in
  let rec_text =
    Format.asprintf "%a" Wal.pp_entry
      (Wal.Commit
         { txn = 7; ts = 42; updates = [ { Wal.key = "x"; value = Some "1" } ];
           digest = 0 })
  in
  check_bool "commit record pp" true
    (contains "T7" rec_text && contains "1 updates" rec_text);
  let txn =
    {
      History.id = 3;
      session = "c1";
      kind = History.Read_only;
      site = "secondary-0";
      first_op = 5;
      finished = 6;
      snapshot = 9;
      commit_ts = None;
      read_keys = [||];
      read_values = [||];
      writes = [];
      fence = None;
    }
  in
  let txn_text = Format.asprintf "%a" History.pp_txn txn in
  check_bool "history txn pp" true (contains "T3" txn_text && contains "c1" txn_text);
  let alert_text =
    Format.asprintf "%a" Watchdog.pp_alert
      { Watchdog.at = 6.; txn = 3; session = "c1"; site = "secondary-0";
        snapshot = 9;
        kind = Watchdog.Inversion { level = Watchdog.In_session; earlier = 1; floor = 12 } }
  in
  check_bool "inversion alert pp" true
    (contains "txn 3" alert_text && contains "inversion (in-session)" alert_text)

(* --- Session guarantees ------------------------------------------------------------ *)

let test_session_weak_never_blocks () =
  let mgr = Session.create Session.Weak in
  Session.note_update_commit mgr ~label:"c1" ~commit_ts:10;
  check_bool "weak always may read" true
    (may_read mgr ~label:"c1" ~seq_dbsec:0)

let test_session_strong_session_blocks_own_label () =
  let mgr = Session.create Session.Strong_session in
  Session.note_update_commit mgr ~label:"c1" ~commit_ts:10;
  check_bool "own session blocked on stale copy" false
    (may_read mgr ~label:"c1" ~seq_dbsec:5);
  check_bool "own session allowed on fresh copy" true
    (may_read mgr ~label:"c1" ~seq_dbsec:10);
  check_bool "other session unaffected" true
    (may_read mgr ~label:"c2" ~seq_dbsec:0)

let test_session_strong_blocks_everyone () =
  let mgr = Session.create Session.Strong in
  Session.note_update_commit mgr ~label:"c1" ~commit_ts:10;
  check_bool "every session blocked" false
    (may_read mgr ~label:"c2" ~seq_dbsec:5)

let test_session_seq_monotone () =
  let mgr = Session.create Session.Strong_session in
  Session.note_update_commit mgr ~label:"c1" ~commit_ts:10;
  Session.note_update_commit mgr ~label:"c1" ~commit_ts:7;
  Alcotest.(check int) "seq never regresses" 10 (Session.seq mgr "c1")

let test_session_pcsi_ignores_read_floor () =
  (* PCSI orders a session's reads only after its own updates; strong
     session SI additionally never lets snapshots move backwards. *)
  let pcsi = Session.create Session.Prefix_consistent in
  let strong_session = Session.create Session.Strong_session in
  List.iter
    (fun mgr -> Session.note_read mgr ~label:"c" ~snapshot:10)
    [ pcsi; strong_session ];
  check_bool "PCSI: older copy fine after a read" true
    (may_read pcsi ~label:"c" ~seq_dbsec:5);
  check_bool "strong session: older copy refused" false
    (may_read strong_session ~label:"c" ~seq_dbsec:5);
  Alcotest.(check int) "read floor tracked" 10
    (Session.read_floor strong_session "c");
  Alcotest.(check int) "read floor not tracked under PCSI" 0
    (Session.read_floor pcsi "c")

let test_session_pcsi_blocks_after_update () =
  let mgr = Session.create Session.Prefix_consistent in
  Session.note_update_commit mgr ~label:"c" ~commit_ts:10;
  check_bool "PCSI blocks own-update staleness" false
    (may_read mgr ~label:"c" ~seq_dbsec:5)

let test_session_guarantee_names () =
  Alcotest.(check string) "weak" "ALG-WEAK-SI" (Session.guarantee_name Session.Weak);
  Alcotest.(check string) "session" "ALG-STRONG-SESSION-SI"
    (Session.guarantee_name Session.Strong_session);
  Alcotest.(check string) "strong" "ALG-STRONG-SI"
    (Session.guarantee_name Session.Strong);
  Alcotest.(check string) "pcsi" "ALG-PCSI"
    (Session.guarantee_name Session.Prefix_consistent)

(* --- Freshness fences --------------------------------------------------------------- *)

let test_fence_string_round_trip () =
  List.iter
    (fun f ->
      match Session.fence_of_string (Session.fence_to_string f) with
      | Ok f' ->
        Alcotest.(check string)
          "round trip" (Session.fence_to_string f) (Session.fence_to_string f')
      | Error e -> Alcotest.fail e)
    [ Session.Exact 42; Session.Max_age 2.5; Session.Session_seq ];
  List.iter
    (fun s ->
      match Session.fence_of_string s with
      | Ok _ -> Alcotest.failf "parsed garbage fence %S" s
      | Error _ -> ())
    [ ""; "bogus"; "exact:"; "exact:x"; "age:"; "age:nope"; "sessions" ]

let test_fence_clock_horizon () =
  let c = Session.clock_create () in
  check_int "empty clock has zero horizon" Timestamp.zero
    (Session.clock_horizon c ~cutoff:1e9);
  Session.clock_note c ~commit_ts:1 ~at:10.;
  Session.clock_note c ~commit_ts:2 ~at:20.;
  Session.clock_note c ~commit_ts:5 ~at:20.;
  Session.clock_note c ~commit_ts:7 ~at:35.;
  check_int "entries tracked" 4 (Session.clock_len c);
  check_int "before first commit" Timestamp.zero
    (Session.clock_horizon c ~cutoff:9.);
  check_int "exactly at a commit" 1 (Session.clock_horizon c ~cutoff:10.);
  check_int "ties resolve to the newest" 5 (Session.clock_horizon c ~cutoff:20.);
  check_int "between commits" 5 (Session.clock_horizon c ~cutoff:34.9);
  check_int "after the last commit" 7 (Session.clock_horizon c ~cutoff:1e6);
  (match Session.clock_time_of c 5 with
  | Some t -> Alcotest.(check (float 1e-9)) "time of ts 5" 20. t
  | None -> Alcotest.fail "ts 5 should be in the clock");
  check_bool "unknown ts has no time" true (Session.clock_time_of c 3 = None);
  (* The clock is append-only and monotone in both coordinates. *)
  check_bool "non-monotone ts rejected" true
    (try
       Session.clock_note c ~commit_ts:6 ~at:40.;
       false
     with Invalid_argument _ -> true);
  check_bool "non-monotone time rejected" true
    (try
       Session.clock_note c ~commit_ts:9 ~at:30.;
       false
     with Invalid_argument _ -> true)

(* [Session.clock_freshness] against a list model of the clock: the
   snapshot's commit ordinal is its 1-based position, every later commit is
   missed, and an absent snapshot (zero, or a timestamp never committed)
   misses every commit at age [now]. *)
let prop_clock_freshness_matches_model =
  let model commits ~snapshot ~now =
    let n = List.length commits in
    let rec find ord = function
      | [] -> None
      | (ts, at) :: rest -> if ts = snapshot then Some (ord, at) else find (ord + 1) rest
    in
    match find 1 commits with
    | Some (ord, at) -> if ord = n then (0., 0) else (now -. at, n - ord)
    | None -> if n = 0 then (0., 0) else (now, n)
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 100) (pair (int_range 1 3) (int_range 0 5)))
        (pair (int_range 0 3) nat))
  in
  QCheck.Test.make ~name:"clock freshness = list model" ~count:300
    (QCheck.make gen) (fun (steps, (kind, pick)) ->
      (* Commit timestamps are even, so an odd one is never in the clock. *)
      let _, rev_commits =
        List.fold_left
          (fun ((ts, at), acc) (dts, dat) ->
            let next = (ts + (2 * dts), at +. float_of_int dat) in
            (next, next :: acc))
          ((0, 0.), []) steps
      in
      let commits = List.rev rev_commits in
      let c = Session.clock_create () in
      List.iter (fun (ts, at) -> Session.clock_note c ~commit_ts:ts ~at) commits;
      let n = List.length commits in
      let snapshot =
        match (kind, rev_commits) with
        | 0, _ | _, [] -> Timestamp.zero
        | 1, (last, _) :: _ -> last (* caught up *)
        | 2, _ -> fst (List.nth commits (pick mod n)) (* lagging *)
        | _ -> (2 * pick) + 1 (* absent *)
      in
      let now = 1000. in
      Session.clock_freshness c ~snapshot ~now = model commits ~snapshot ~now)

let test_fence_raises_weak_floor () =
  (* A fence is additive to the ambient guarantee: under Weak, the read's
     threshold is the fence's alone; a Session_seq fence reduces exactly to
     the strong-session requirement. *)
  let mgr = Session.create Session.Weak in
  Session.note_update_commit mgr ~label:"c" ~commit_ts:10;
  check_int "weak alone requires nothing" Timestamp.zero
    (required mgr ~label:"c");
  check_int "exact fence requires its ts" 17
    (required ~fence:(Session.Exact 17) mgr ~label:"c");
  check_int "session fence = strong-session requirement" 10
    (required ~fence:Session.Session_seq mgr ~label:"c");
  check_bool "fenced read blocked on stale copy" false
    (may_read ~fence:Session.Session_seq mgr ~label:"c" ~seq_dbsec:5);
  (* A Session_seq-fenced read raises the session's read floor even under
     Weak, so later Session_seq reads never move backwards. *)
  Session.note_read ~fence:Session.Session_seq mgr ~label:"c" ~snapshot:12;
  check_int "session fence floor ratchets" 12
    (required ~fence:Session.Session_seq mgr ~label:"c");
  check_int "guarantee alone still requires nothing" Timestamp.zero
    (required mgr ~label:"c")

let test_fence_max_age_threshold () =
  let mgr = Session.create Session.Weak in
  let clock = Session.clock_create () in
  Session.clock_note clock ~commit_ts:3 ~at:10.;
  Session.clock_note clock ~commit_ts:8 ~at:50.;
  check_int "horizon at now-5" 3
    (required ~fence:(Session.Max_age 5.) ~clock ~now:40. mgr ~label:"c");
  check_int "tight bound reaches the newest commit" 8
    (required ~fence:(Session.Max_age 0.) ~clock ~now:50. mgr ~label:"c");
  (* The horizon is resolved at submission; the guarantee's part stays
     live. *)
  let mgr = Session.create Session.Prefix_consistent in
  let fence = Session.Max_age 5. in
  let floor = Session.fence_floor ~fence clock ~now:40. in
  let threshold () = Session.read_threshold ~fence mgr ~label:"c" ~floor in
  check_int "the horizon alone" 3 (threshold ());
  Session.note_update_commit mgr ~label:"c" ~commit_ts:9;
  check_int "the guarantee's part read at each call" 9 (threshold ())

(* --- The post-hoc verdict: a recorded history replayed into a watchdog ---------- *)

let mk_txn ~id ~session ~kind ~first_op ~finished ~snapshot ?commit_ts
    ?(reads = []) ?(writes = []) ?fence () =
  let read_keys, read_values = Fixtures.reads_of_list reads in
  {
    History.id;
    session;
    kind;
    site = "test";
    first_op;
    finished;
    snapshot;
    commit_ts;
    read_keys;
    read_values;
    writes;
    fence;
  }

let history_of txns =
  let h = History.create () in
  List.iter (Fixtures.add h) txns;
  h
let test_checker_detects_inversion_update_then_read () =
  (* Case 3 of Theorem 4.1: update commits (state 5), then a read in the
     same session sees state 3: inversion. *)
  let h =
    history_of
      [
        mk_txn ~id:1 ~session:"c" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 ~commit_ts:5 ();
        mk_txn ~id:2 ~session:"c" ~kind:History.Read_only ~first_op:3 ~finished:4
          ~snapshot:3 ();
      ]
  in
  let v = Fixtures.audit h in
  check_int "one inversion" 1 v.Watchdog.v_inversions_all;
  check_int "also in-session" 1 v.v_inversions_in_session;
  check_bool "not strong SI" false (Fixtures.satisfies Session.Strong v);
  check_bool "not strong session SI" false
    (Fixtures.satisfies Session.Strong_session v)

let test_checker_cross_session_inversion_allowed_in_session_mode () =
  let h =
    history_of
      [
        mk_txn ~id:1 ~session:"c1" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 ~commit_ts:5 ();
        mk_txn ~id:2 ~session:"c2" ~kind:History.Read_only ~first_op:3 ~finished:4
          ~snapshot:3 ();
      ]
  in
  let v = Fixtures.audit h in
  check_int "global inversion exists" 1 v.Watchdog.v_inversions_all;
  check_int "no in-session inversion" 0 v.v_inversions_in_session;
  check_bool "strong session SI holds" true
    (Fixtures.satisfies Session.Strong_session v)

let test_checker_read_read_inversion () =
  (* Case 4: snapshots must not move backwards within a session. *)
  let h =
    history_of
      [
        mk_txn ~id:1 ~session:"c" ~kind:History.Read_only ~first_op:1 ~finished:2
          ~snapshot:7 ();
        mk_txn ~id:2 ~session:"c" ~kind:History.Read_only ~first_op:3 ~finished:4
          ~snapshot:3 ();
      ]
  in
  check_int "backward snapshot is an inversion" 1
    (Fixtures.audit h).Watchdog.v_inversions_in_session

let test_checker_fence_audit () =
  (* A mis-woken fenced reader — snapshot below what its fence promised —
     must be caught by the audit even though the ambient guarantee (Weak)
     tolerates arbitrary staleness. *)
  let fenced claim read_at = { History.claim; read_at } in
  let violating =
    history_of
      [
        mk_txn ~id:1 ~session:"w" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 ~commit_ts:5 ();
        (* Exact fence at 5, but woken with a snapshot of 3. *)
        mk_txn ~id:2 ~session:"r" ~kind:History.Read_only ~first_op:3
          ~finished:4 ~snapshot:3
          ~fence:(fenced (Session.Exact 5) 3.) ();
        (* Session_seq fence: session "w" committed ts 5 before this read
           started, so a snapshot of 2 breaks the session floor. *)
        mk_txn ~id:3 ~session:"w" ~kind:History.Read_only ~first_op:5
          ~finished:6 ~snapshot:2
          ~fence:(fenced Session.Session_seq 5.) ();
      ]
  in
  let v = Fixtures.audit violating in
  check_int "both mis-woken readers caught" 2 v.Watchdog.fence_failures;
  check_int "each is an alert" 2 v.alerts_total;
  check_int "and no read mismatch: weak SI alone would have accepted it" 0
    v.read_mismatches;
  (* The same history with honest snapshots passes. *)
  let clean =
    history_of
      [
        mk_txn ~id:1 ~session:"w" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 ~commit_ts:5 ();
        mk_txn ~id:2 ~session:"r" ~kind:History.Read_only ~first_op:3
          ~finished:4 ~snapshot:5
          ~fence:(fenced (Session.Exact 5) 3.) ();
        mk_txn ~id:3 ~session:"w" ~kind:History.Read_only ~first_op:5
          ~finished:6 ~snapshot:5
          ~fence:(fenced Session.Session_seq 5.) ();
      ]
  in
  check_int "honest fenced reads pass the audit" 0
    (Fixtures.audit clean).Watchdog.fence_failures;
  (* A Max_age claim is auditable only with the commit clock; without one it
     is reported, never silently skipped. *)
  let aged =
    history_of
      [
        mk_txn ~id:1 ~session:"w" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 ~commit_ts:5 ();
        mk_txn ~id:2 ~session:"r" ~kind:History.Read_only ~first_op:3
          ~finished:4 ~snapshot:0
          ~fence:(fenced (Session.Max_age 1.) 10.) ();
      ]
  in
  check_int "Max_age without a clock is itself a violation" 1
    (Fixtures.audit aged).Watchdog.fence_failures;
  let clock = Session.clock_create () in
  Session.clock_note clock ~commit_ts:5 ~at:2.;
  check_int "with the clock, the stale Max_age read is caught" 1
    (Fixtures.audit ~clock aged).Watchdog.fence_failures

let test_checker_fence_edge_cases () =
  let fenced claim read_at = { History.claim; read_at } in
  (* A Max_age claim audited against a clock with no commits yet: the
     visibility horizon of an empty clock is state zero, which any snapshot
     satisfies — present-but-empty is not the same as absent (a violation). *)
  let aged =
    history_of
      [
        mk_txn ~id:1 ~session:"r" ~kind:History.Read_only ~first_op:1
          ~finished:2 ~snapshot:0
          ~fence:(fenced (Session.Max_age 1.) 10.) ();
      ]
  in
  check_int "Max_age vs empty clock: horizon 0, trivially satisfied" 0
    (Fixtures.audit ~clock:(Session.clock_create ()) aged).Watchdog.fence_failures;
  check_int "the same claim with no clock at all is a violation" 1
    (Fixtures.audit aged).Watchdog.fence_failures;
  (* Fence claims on transactions that later abort are never audited: the
     audit quantifies over committed transactions, and an aborted update
     must not raise the session fence floor either. *)
  let aborted_fenced =
    history_of
      [
        (* Aborted update carrying a (nonsensical but recordable) fence. *)
        mk_txn ~id:1 ~session:"s" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0
          ~fence:(fenced (Session.Exact 99) 1.) ();
        (* Committed update at ts 5 raises the floor for its session... *)
        mk_txn ~id:2 ~session:"s" ~kind:History.Update ~first_op:3 ~finished:4
          ~snapshot:0 ~commit_ts:5 ();
        (* Aborted update at a would-be ts 9 must NOT raise it further. *)
        mk_txn ~id:3 ~session:"s" ~kind:History.Update ~first_op:5 ~finished:6
          ~snapshot:0 ();
        (* ...so a Session_seq read at snapshot 5 is honest (floor 5, not 9),
           and the aborted claims above were ignored entirely. *)
        mk_txn ~id:4 ~session:"s" ~kind:History.Read_only ~first_op:7
          ~finished:8 ~snapshot:5
          ~fence:(fenced Session.Session_seq 7.) ();
      ]
  in
  check_int "aborted claims ignored, aborted commits don't raise the floor" 0
    (Fixtures.audit aborted_fenced).Watchdog.fence_failures;
  (* Multiple Session_seq claims in one session ratchet: the first fenced
     read's snapshot becomes part of the floor the second is audited
     against, so a later read regressing below it is a violation even
     though no update intervened. *)
  let ratchet =
    history_of
      [
        mk_txn ~id:1 ~session:"s" ~kind:History.Read_only ~first_op:1
          ~finished:2 ~snapshot:7
          ~fence:(fenced Session.Session_seq 1.) ();
        mk_txn ~id:2 ~session:"s" ~kind:History.Read_only ~first_op:3
          ~finished:4 ~snapshot:3
          ~fence:(fenced Session.Session_seq 3.) ();
      ]
  in
  check_int "second Session_seq claim audited against the first's snapshot" 1
    (Fixtures.audit ratchet).Watchdog.fence_failures

let test_checker_concurrent_txns_not_inverted () =
  (* Overlapping transactions impose no ordering constraint. *)
  let h =
    history_of
      [
        mk_txn ~id:1 ~session:"c" ~kind:History.Update ~first_op:1 ~finished:5
          ~snapshot:0 ~commit_ts:9 ();
        mk_txn ~id:2 ~session:"c" ~kind:History.Read_only ~first_op:3 ~finished:4
          ~snapshot:0 ();
      ]
  in
  check_int "no inversion between concurrent txns" 0
    (Fixtures.audit h).Watchdog.v_inversions_all

let test_checker_aborted_txns_ignored () =
  let h =
    history_of
      [
        mk_txn ~id:1 ~session:"c" ~kind:History.Update ~first_op:1 ~finished:2
          ~snapshot:0 () (* aborted: no commit_ts *);
        mk_txn ~id:2 ~session:"c" ~kind:History.Read_only ~first_op:3 ~finished:4
          ~snapshot:0 ();
      ]
  in
  check_int "aborted updates pin nothing" 0
    (Fixtures.audit h).Watchdog.v_inversions_all

let test_checker_weak_si_read_validation () =
  (* A read of x at snapshot 2 must observe the writer at ts<=2, not later. *)
  let w1 =
    mk_txn ~id:1 ~session:"w" ~kind:History.Update ~first_op:1 ~finished:2
      ~snapshot:0 ~commit_ts:2
      ~writes:[ { Wal.key = "x"; value = Some "old" } ]
      ()
  in
  let w2 =
    mk_txn ~id:2 ~session:"w" ~kind:History.Update ~first_op:3 ~finished:4
      ~snapshot:2 ~commit_ts:4
      ~writes:[ { Wal.key = "x"; value = Some "new" } ]
      ()
  in
  let good_read =
    mk_txn ~id:3 ~session:"r" ~kind:History.Read_only ~first_op:5 ~finished:6
      ~snapshot:2
      ~reads:[ ("x", Some "old") ]
      ()
  in
  let bad_read =
    mk_txn ~id:4 ~session:"r" ~kind:History.Read_only ~first_op:7 ~finished:8
      ~snapshot:2
      ~reads:[ ("x", Some "new") ]
      ()
  in
  check_int "consistent history passes" 0
    (Fixtures.audit (history_of [ w1; w2; good_read ])).Watchdog.read_mismatches;
  check_int "inconsistent read flagged" 1
    (Fixtures.audit (history_of [ w1; w2; bad_read ])).Watchdog.read_mismatches

(* --- Completeness: the digest each commit record carries --------------------- *)

let primary_commits primary = Fixtures.logged_commits (Mvcc.wal primary)

(* A fresh secondary that refreshed [writesets] in order, as start and
   commit records of primary txns 0, 1, ..., the [i]th commit record
   carrying [digest i]. *)
let refresh_forged ~digest writesets =
  let sec = Secondary.create () in
  List.iteri
    (fun txn updates ->
      Secondary.enqueue sec (Wal.Start { txn; ts = (2 * txn) + 1 });
      Secondary.enqueue sec
        (Wal.Commit { txn; ts = (2 * txn) + 2; updates; digest = digest txn }))
    writesets;
  ignore (drain sec);
  sec

let put_update key value = { Wal.key; value = Some value }

let test_checker_completeness_positive_negative () =
  let primary = Fixtures.primary () in
  ignore (update_at primary [ ("a", Some "1") ]);
  ignore (update_at primary [ ("b", Some "2") ]);
  let digests = Array.of_list (List.map (fun (_, _, d) -> d) (primary_commits primary)) in
  let digest i = digests.(i) in
  let verdict ?(digest = digest) writesets =
    Secondary.diverged (refresh_forged ~digest writesets)
  in
  let a = [ put_update "a" "1" ] and b = [ put_update "b" "2" ] in
  (* A prefix of the primary's writesets, in its order: every digest reached. *)
  check_int "prefix" (-1) (verdict [ a ]);
  check_int "whole sequence" (-1) (verdict [ a; b ]);
  (* Caught at the first commit that diverges, and only there. *)
  check_int "divergent writeset" 1 (verdict [ a; [ put_update "b" "WRONG" ] ]);
  check_int "out of order" 0 (verdict [ b; a ]);
  check_int "one missing" 0 (verdict [ b ]);
  check_int "a forged digest" 1 (verdict ~digest:(fun i -> digest i + i) [ a; b ])

let test_checker_completeness_secondary_ahead () =
  let primary = Fixtures.primary () in
  ignore (update_at primary [ ("a", Some "1") ]);
  (* A writeset the primary never committed, shipped as if it left the
     primary's state as it is. *)
  let last = match primary_commits primary with [ (_, _, d) ] -> d | _ -> assert false in
  check_int "the extra commit diverges" 1
    (Secondary.diverged
       (refresh_forged ~digest:(fun _ -> last)
          [ [ put_update "a" "1" ]; [ put_update "x" "1" ] ]))

(* --- Completeness against a writeset-prefix oracle ------------------------------ *)

(* The index of the first replayed writeset that is not the primary's
   writeset at that position (one past the primary's last commit counts as
   not), or -1 when the replay is a prefix of the primary's sequence. *)
let prefix_oracle ~installed replay =
  let rec first i installed replay =
    match (installed, replay) with
    | _, [] -> -1
    | [], _ :: _ -> i
    | pw :: prest, sw :: srest -> if pw = sw then first (i + 1) prest srest else i
  in
  first 0 installed replay

type completeness_mutation =
  | Unchanged
  | Changed_value
  | Missing_key
  | Extra_key
  | Tombstone  (** a delete on one side where the other side has a value *)
  | More_commits

(* A primary with a few commits over six keys, optionally vacuumed, and a
   secondary that refreshes a prefix of its writesets, one of them mutated,
   each commit record carrying the primary's digest at its position (a
   commit past the primary's last carries its final digest). Vacuuming the
   primary leaves the verdict as it is: no step reads an old version. *)
let completeness_case_gen =
  let open QCheck.Gen in
  let value = oneof [ return None; map (fun v -> Some (string_of_int v)) (int_range 0 3) ] in
  let write = pair (map (fun k -> String.make 1 "abcdef".[k]) (int_range 0 5)) value in
  let writeset = list_size (int_range 1 4) write in
  let mutation =
    oneofl
      [ Unchanged; Changed_value; Missing_key; Extra_key; Tombstone; More_commits ]
  in
  pair
    (pair (list_size (int_range 0 6) writeset) (int_range 0 6))
    (triple mutation (int_range 0 6) (opt (int_range 0 8)))

type completeness_case = {
  primary : Mvcc.t;
  installed : Wal.update list list;
  replay : Wal.update list list;
  secondary : Secondary.t;
  vacuumed : int;  (* versions the primary's vacuum reclaimed *)
}

let build_completeness_case ((commits, prefix), (mutation, at, vacuum)) =
  let primary = Fixtures.primary () in
  List.iter (fun ws -> ignore (update_at primary ws)) commits;
  let recorded = primary_commits primary in
  let installed = List.map (fun (_, updates, _) -> updates) recorded in
  let m = min prefix (List.length installed) in
  let replay = List.filteri (fun i _ -> i < m) installed in
  let mutate_at f =
    match replay with
    | [] -> replay
    | _ ->
      let j = at mod List.length replay in
      List.mapi (fun i ws -> if i = j then f ws else ws) replay
  in
  let replay =
    match mutation with
    | Unchanged -> replay
    | Changed_value ->
      mutate_at (function
        | { Wal.key; _ } :: rest -> { Wal.key; value = Some "changed" } :: rest
        | [] -> [])
    | Missing_key -> mutate_at (function _ :: rest -> rest | [] -> [])
    | Extra_key -> mutate_at (fun ws -> ws @ [ put_update "z" "x" ])
    | Tombstone ->
      mutate_at (function
        | { Wal.key; value = Some _ } :: rest -> { Wal.key; value = None } :: rest
        | { Wal.key; value = None } :: rest -> put_update key "t" :: rest
        | [] -> [])
    | More_commits ->
      installed @ [ [ put_update "z" "x" ]; [ { Wal.key = "a"; value = None } ] ]
  in
  let vacuumed =
    match Option.bind vacuum (List.nth_opt recorded) with
    | Some (before, _, _) -> Mvcc.vacuum primary ~before
    | None -> 0
  in
  let final = Mvcc.digest primary in
  let digest i =
    match List.nth_opt recorded i with Some (_, _, d) -> d | None -> final
  in
  { primary; installed; replay; secondary = refresh_forged ~digest replay; vacuumed }

let prop_completeness_matches_oracle =
  QCheck.Test.make ~name:"completeness = materialized oracle" ~count:500
    (QCheck.make completeness_case_gen)
    (fun case ->
      let c = build_completeness_case case in
      let primary = c.primary and secondary = Secondary.db c.secondary in
      Secondary.diverged c.secondary = prefix_oracle ~installed:c.installed c.replay
      && Mvcc.same_state primary ~at:(Mvcc.latest_commit_ts primary) secondary
         = (Mvcc.committed_state primary = Mvcc.committed_state secondary))

(* The generator must reach every verdict, on a vacuumed primary too, else
   the property proves nothing about it. *)
let test_completeness_oracle_coverage () =
  let rand = Random.State.make [| 21 |] in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 500 do
    let c = build_completeness_case (QCheck.Gen.generate1 ~rand completeness_case_gen) in
    let verdict =
      match Secondary.diverged c.secondary with
      | -1 -> "prefix"
      | i when i < List.length c.installed -> "diverged"
      | _ -> "ahead"
    in
    Hashtbl.replace seen verdict ();
    if c.vacuumed > 0 then Hashtbl.replace seen (verdict ^ " after a vacuum") ()
  done;
  List.iter
    (fun v -> check_bool ("reached " ^ v) true (Hashtbl.mem seen v))
    [ "prefix"; "diverged"; "ahead"; "prefix after a vacuum"; "diverged after a vacuum" ]

(* Comparing states key by key allocates nothing per key: the recovered
   sites' audit allocates the same few words for a 5k-key and a 20k-key
   pair. *)
let test_completeness_allocation_bound () =
  let words_allocated keys =
    let primary = Mvcc.create () and secondary = Mvcc.create () in
    let commits = 4 in
    for c = 0 to commits - 1 do
      List.iter
        (fun db ->
          let txn = Mvcc.begin_txn db in
          for k = c * keys / commits to ((c + 1) * keys / commits) - 1 do
            Mvcc.write db txn (Printf.sprintf "k%06d" k) (Some (string_of_int c))
          done;
          ignore (commit_exn db txn))
        [ primary; secondary ]
    done;
    let check () =
      if not (Mvcc.same_state primary ~at:(Mvcc.latest_commit_ts primary) secondary)
      then Alcotest.fail "equal states compared unequal"
    in
    check ();
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let before = allocated () in
    check ();
    allocated () -. before
  in
  let bound = 1_000. in
  List.iter
    (fun keys ->
      let words = words_allocated keys in
      if words > bound then
        Alcotest.failf "same_state on %d keys allocated %.0f words (bound %.0f)"
          keys words bound)
    [ 5_000; 20_000 ]

(* The replay must agree with direct O(n^2) transcriptions of Definitions
   2.1/2.2 at all three strictness levels, witness for witness, and with
   the separate fence sweep of [Legacy_checker.fences], on histories with
   fences, sessions migrating between sites and aborts. Committed updates'
   timestamps are drawn the way a primary commits them, increasing in
   finish order (the watchdog's input contract), each above its snapshot. *)
let prop_inversions_match_bruteforce =
  let fence_gen =
    QCheck.Gen.(
      map2
        (fun choice (ts, age) ->
          let claim =
            match choice with
            | 0 -> Session.Exact ts
            | 1 -> Session.Session_seq
            | _ -> Session.Max_age (float_of_int age)
          in
          { History.claim; read_at = float_of_int (ts + age) })
        (int_range 0 2)
        (pair (int_range 0 12) (int_range 0 6)))
  in
  (* A committed update's [commit_ts] is a placeholder until
     [as_committed]. *)
  let txn_gen =
    QCheck.Gen.(
      map
        (fun ((sess, site), (kind, a, b), (snap, fence)) ->
          let first_op = min a b and finished = max a b in
          let kind = if kind then History.Update else History.Read_only in
          let commit_ts =
            match kind with
            | History.Update -> if snap mod 3 = 0 then None else Some 0
            | History.Read_only -> None
          in
          {
            History.id = 0;
            session = Printf.sprintf "s%d" sess;
            kind;
            site = Printf.sprintf "site%d" site;
            first_op;
            finished = finished + 1;
            snapshot = snap;
            commit_ts;
            read_keys = [||];
            read_values = [||];
            writes = [];
            fence;
          })
        (triple
           (pair (int_range 0 2) (int_range 0 1))
           (triple bool (int_range 0 30) (int_range 0 30))
           (pair (int_range 0 10) (opt ~ratio:0.6 fence_gen))))
  in
  let by key l = List.stable_sort (fun a b -> Int.compare (key a) (key b)) l in
  (* Ids by position; commit timestamps in finish order. *)
  let as_committed txns =
    let txns = List.mapi (fun id (t : History.txn) -> { t with History.id }) txns in
    let commits = Hashtbl.create 16 and last = ref 0 in
    List.iter
      (fun (t : History.txn) ->
        if t.commit_ts <> None then begin
          last := max (!last + 1) (t.snapshot + 1);
          Hashtbl.replace commits t.id !last
        end)
      (by (fun t -> t.History.finished) txns);
    List.map
      (fun (t : History.txn) ->
        { t with commit_ts = Hashtbl.find_opt commits t.id })
      txns
  in
  let committed (t : History.txn) =
    match (t.kind, t.commit_ts) with
    | History.Update, Some _ -> true
    | History.Update, None -> false
    | History.Read_only, _ -> true
  in
  let state (t : History.txn) =
    match t.kind with
    | History.Update -> Option.get t.commit_ts
    | History.Read_only -> t.snapshot
  in
  (* For each committed [t2]: among the committed [t1] that finished before
     its first operation (same session, updates only, as asked), the first
     in finish order with the highest state; an inversion when [t2]'s
     snapshot is older. The (t1, t2) id pairs, sorted. *)
  let bruteforce ~same_session ~updates_only txns =
    let committed_txns = List.filter committed txns in
    let by_finish = by (fun t -> t.History.finished) committed_txns in
    List.filter_map
      (fun (t2 : History.txn) ->
        let floor =
          List.fold_left
            (fun best (t1 : History.txn) ->
              if
                t1.finished < t2.first_op
                && ((not same_session) || t1.session = t2.session)
                && ((not updates_only) || t1.kind = History.Update)
              then
                match best with
                | Some b when state b >= state t1 -> best
                | Some _ | None -> Some t1
              else best)
            None by_finish
        in
        match floor with
        | Some t1 when t2.snapshot < state t1 -> Some (t1.History.id, t2.History.id)
        | Some _ | None -> None)
      committed_txns
    |> List.sort compare
  in
  let fence_alerts w = Fixtures.fence_alerts (Watchdog.alerts w) in
  let clock = Session.clock_create () in
  for ts = 1 to 12 do
    Session.clock_note clock ~commit_ts:ts ~at:(float_of_int ts)
  done;
  QCheck.Test.make ~name:"inversion sweep = brute force" ~count:300
    QCheck.(make Gen.(map as_committed (list_size (int_range 0 20) txn_gen)))
    (fun txns ->
      let h = history_of txns in
      let levels =
        [
          (Session.Strong, false, false);
          (Session.Strong_session, true, false);
          (Session.Prefix_consistent, true, true);
        ]
      in
      let v = Fixtures.audit ~clock h in
      List.map
        (fun (_, same_session, updates_only) ->
          List.length (bruteforce ~same_session ~updates_only txns))
        levels
      = [ v.Watchdog.v_inversions_all; v.v_inversions_in_session;
          v.v_inversions_after_update ]
      && List.for_all
           (fun (guarantee, same_session, updates_only) ->
             Fixtures.alert_pairs
               (Watchdog.alerts (Watchdog.replay ~clock ~guarantee h))
             = bruteforce ~same_session ~updates_only txns)
           levels
      && fence_alerts (Watchdog.replay ~clock ~guarantee:Session.Weak h)
         = List.sort compare (Legacy_checker.fences ~clock h)
      && fence_alerts (Watchdog.replay ~guarantee:Session.Weak h)
         = List.sort compare (Legacy_checker.fences h))

(* --- Embedded System ------------------------------------------------------------------ *)

let test_system_weak_shows_inversion () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "alice" in
  (match System.update sys c (fun h -> Handle.put h "order" "placed") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  (* No pump: the copy is stale, so the session sees old data. *)
  let v = System.read sys c (fun h -> Handle.get h "order") in
  check_str_opt "stale read under weak SI" None v;
  let v = Fixtures.audit ~clock:(System.commit_clock sys) (System.history sys) in
  check_int "inversion recorded" 1 v.Watchdog.v_inversions_in_session;
  check_int "still weak SI" 0 v.read_mismatches

let test_system_strong_session_reads_own_writes () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "bob" in
  (match System.update sys c (fun h -> Handle.put h "order" "placed") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let v = System.read sys c (fun h -> Handle.get h "order") in
  check_str_opt "read-your-writes" (Some "placed") v;
  check_int "the read had to wait" 1 (System.blocked_reads sys);
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* A refresh installs the writeset the propagator shipped: every dispatched
   refresh transaction at every secondary holds that very list, the one the
   primary's commit installed and logged. *)
let test_system_secondaries_share_shipped_writesets () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Weak () in
  let c = System.connect sys "loader" in
  let update body =
    match System.update sys c body with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  update (fun h -> for i = 0 to 39 do Handle.put h (Printf.sprintf "k%02d" i) "v" done);
  update (fun h ->
      Handle.put h "a" "1";
      Handle.put h "b" "2";
      Handle.put h "a" "3");
  update (fun h -> Handle.del h "k00");
  let rs = System.replica_set sys in
  let logged =
    List.map (fun (_, updates, _) -> updates) (primary_commits (Replica_set.primary rs))
  in
  check_int "three commits logged" 3 (List.length logged);
  let fire move = ignore (Replica_set.fire rs move) in
  fire Replica_set.Poll;
  for i = 0 to 2 do
    fire (Replica_set.Deliver i);
    List.iter
      (fun updates ->
        (* The start record opens the refresh, the commit record dispatches it. *)
        fire (Replica_set.Refresh i);
        fire (Replica_set.Refresh i);
        (match Secondary.active_applicators (Replica_set.secondary rs i) with
        | [ app ] ->
          check_bool "the primary's own list" true
            (Mvcc.pending_writes (Secondary.applicator_txn app) == updates)
        | _ -> Alcotest.fail "expected one dispatched refresh");
        fire (Replica_set.Commit i))
      logged;
    check_int "every commit refreshed"
      (Mvcc.latest_commit_ts (System.primary_db sys))
      (Secondary.seq_dbsec (System.secondary sys i))
  done;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_strong_session_cross_session_stale_ok () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let writer = System.connect sys "writer" in
  let reader = System.connect sys "reader" in
  (match System.update sys writer (fun h -> Handle.put h "x" "new") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  (* Different session: may read stale data without waiting. *)
  let v = System.read sys reader (fun h -> Handle.get h "x") in
  check_str_opt "other session reads stale" None v;
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_strong_blocks_cross_session () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong () in
  let writer = System.connect sys "writer" in
  let reader = System.connect sys "reader" in
  (match System.update sys writer (fun h -> Handle.put h "x" "new") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let v = System.read sys reader (fun h -> Handle.get h "x") in
  check_str_opt "strong SI: cross-session read waits and sees it" (Some "new") v;
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_read_nowait () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  check_bool "nowait returns None while stale" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = None);
  System.pump sys;
  check_bool "nowait succeeds after pump" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = Some (Some "1"))

let test_system_read_nowait_crashed () =
  (* A crashed secondary cannot serve the read now — read_nowait reports
     None instead of raising, and serves again after recovery. *)
  let sys = System.create ~secondaries:2 ~guarantee:Session.Weak () in
  let c = System.connect sys ~secondary:0 "c" in
  (match System.update sys c (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  System.pump sys;
  check_bool "satisfiable read returns Some" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = Some (Some "1"));
  System.crash_secondary sys 0;
  check_bool "crashed secondary returns None, not an exception" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = None);
  System.recover_secondary sys 0;
  check_bool "serves again after recovery" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = Some (Some "1"))

let test_system_fenced_read_session_seq () =
  (* A Session_seq fence under Weak gives that one read exactly the
     strong-session treatment: it waits for the session's own update. *)
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "alice" in
  (match System.update sys c (fun h -> Handle.put h "order" "placed") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  check_bool "unfenced weak read is stale" true
    (System.read sys c (fun h -> Handle.get h "order") = None);
  check_str_opt "session-fenced read sees own write"
    (Some "placed")
    (System.read ~fence:Session.Session_seq sys c (fun h -> Handle.get h "order"));
  check_int "the fenced read had to wait" 1 (System.blocked_reads sys);
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_fenced_read_exact_and_max_age () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let committed = Session.seq (System.sessions sys) "c" in
  check_bool "the update advanced seq(c)" true
    (Timestamp.compare committed Timestamp.zero > 0);
  check_str_opt "exact fence forces the copy up to the commit" (Some "1")
    (System.read ~fence:(Session.Exact committed) sys c (fun h ->
         Handle.get h "x"));
  (match System.update sys c (fun h -> Handle.put h "x" "2") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  (* Max_age 0: nothing older than "now" may be missing — the copy must
     catch up to every commit already on the clock. *)
  check_str_opt "age:0 fence observes the newest commit" (Some "2")
    (System.read ~fence:(Session.Max_age 0.) sys c (fun h -> Handle.get h "x"));
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_fenced_read_future_unsatisfiable () =
  (* An Exact fence naming a commit that does not exist cannot be satisfied
     by any amount of pumping: the bounded retry loop must give up with the
     typed error, not loop forever or fail with an opaque message. *)
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let committed = Session.seq (System.sessions sys) "c" in
  let future = committed + 1000 in
  match System.read ~fence:(Session.Exact future) sys c (fun h -> Handle.get h "x") with
  | _ -> Alcotest.fail "future fence should be unsatisfiable"
  | exception System.Unsatisfiable_read { secondary; required; available; pumps } ->
    check_int "failing site" 0 secondary;
    check_int "required the future ts" future required;
    check_int "available is the caught-up seq" committed available;
    check_bool "retried a bounded number of times" true (pumps > 0)

let test_system_forced_abort () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match System.update sys c ~force_abort:true (fun h -> Handle.put h "x" "1") with
  | Error Mvcc.Forced -> ()
  | Error (Mvcc.Write_conflict _) | Ok _ -> Alcotest.fail "expected forced abort");
  System.pump sys;
  let v = System.read sys c (fun h -> Handle.get h "x") in
  check_str_opt "aborted update never replicates" None v;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_fcw_abort_surfaces () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (* Two "concurrent" updates can't happen in the embedded driver (updates
     run to completion), so exercise the error path via force_abort and a
     direct conflicting pair at the primary. *)
  let db = System.primary_db sys in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  Mvcc.write db t1 "x" (Some "1");
  Mvcc.write db t2 "x" (Some "2");
  ignore (commit_exn db t1);
  (match Mvcc.commit db t2 with
  | Mvcc.Aborted (Mvcc.Write_conflict _) -> ()
  | _ -> Alcotest.fail "conflict expected");
  System.pump sys;
  (* The replicated machinery survives aborted writers in the log. *)
  let v = System.read sys c (fun h -> Handle.get h "x") in
  check_str_opt "first committer replicated" (Some "1") v

let test_system_multi_secondary_consistency () =
  let sys = System.create ~secondaries:4 ~guarantee:Session.Strong_session () in
  let clients = List.init 8 (fun i -> System.connect sys (Printf.sprintf "c%d" i)) in
  List.iteri
    (fun i c ->
      for j = 0 to 5 do
        match
          System.update sys c (fun h ->
              Handle.put h (Printf.sprintf "key%d_%d" i j) (string_of_int j))
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "update failed"
      done)
    clients;
  System.pump sys;
  let reference = Mvcc.committed_state (System.primary_db sys) in
  for i = 0 to 3 do
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "secondary %d converged" i)
      reference
      (Mvcc.committed_state (System.secondary_db sys i))
  done;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_row_api () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "shop" in
  (match
     System.update sys c (fun h ->
         Handle.row_put h ~table:"books" ~pk:"1"
           [ ("title", Row.Text "sicp"); ("stock", Row.Int 3) ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert failed");
  (match
     System.update sys c (fun h ->
         check_bool "row_update" true
           (Handle.row_update h ~table:"books" ~pk:"1" (fun row ->
                Row.set row "stock" (Row.Int 2))))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let stock =
    System.read sys c (fun h ->
        match Handle.row_get h ~table:"books" ~pk:"1" with
        | Some row -> Row.int_exn row "stock"
        | None -> -1)
  in
  check_int "replicated row visible in session" 2 stock;
  let count =
    System.read sys c (fun h ->
        List.length (Handle.row_scan h ~table:"books" ~where:(fun _ -> true)))
  in
  check_int "scan" 1 count;
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_handle_schema_and_reads () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  let h = Fixtures.handle ~schema:[ ("books", [ "genre" ]) ] db txn in
  Alcotest.(check (list string)) "indexed fields" [ "genre" ]
    (Handle.indexed_fields h ~table:"books");
  Alcotest.(check (list string)) "unknown table has none" []
    (Handle.indexed_fields h ~table:"orders");
  ignore (Handle.get h "missing");
  Handle.put h "k" "v";
  ignore (Handle.get h "k");
  (* Each read lands in the buffer in order, read-your-writes included. *)
  match Fixtures.served_list (Handle.reads h) with
  | [ ("missing", None); ("k", Some "v") ] -> ()
  | reads -> Alcotest.failf "unexpected served reads (%d)" (List.length reads)

(* A history is stored as chunked columns: any sequence of records added
   ([Fixtures.add], one [History.add] each) reads back as those records,
   field by field, with each key, value, session, site and update list the
   very one added, across more than three chunks of transactions and of
   reads. *)
let prop_history_round_trip =
  let open QCheck.Gen in
  let fresh = map (fun s -> Bytes.to_string (Bytes.of_string s)) small_string in
  let reads =
    frequency
      [ (4, return []); (5, list_size (int_range 1 6) (pair fresh (opt fresh)));
        (1, list_size (int_range 100 400) (pair fresh (opt fresh))) ]
  in
  let claim =
    oneof
      [ return Session.Session_seq; map (fun ts -> Session.Exact ts) nat;
        map (fun d -> Session.Max_age d) (float_range 0. 10.) ]
  in
  let fence =
    opt (map2 (fun claim read_at -> { History.claim; read_at }) claim
           (float_range 0. 100.))
  in
  let update = map2 (fun key value -> { Wal.key; value }) fresh (opt fresh) in
  let txn =
    int_range 0 2 >>= fun shape ->
    map3
      (fun (id, first_op, finished, snapshot) (session, site, reads)
           (fence, writes, commit) ->
        let read_keys, read_values = Fixtures.reads_of_list reads in
        let kind, commit_ts, writes, fence =
          match shape with
          | 0 -> (History.Read_only, None, [], fence)
          | 1 -> (History.Update, Some commit, writes, None)
          | _ -> (History.Update, None, [], None)
        in
        { History.id; session; kind; site; first_op; finished; snapshot;
          commit_ts; read_keys; read_values; writes; fence })
      (quad nat nat nat nat) (triple fresh fresh reads)
      (triple fence (list_size (int_range 0 4) update) nat)
  in
  QCheck.Test.make ~name:"history columns round-trip" ~count:8
    (QCheck.make (list_size (int_range 3100 4200) txn))
    (fun txns ->
      let h = History.create () in
      List.iter (Fixtures.add h) txns;
      let got = History.transactions h in
      let shared (a : History.txn) (b : History.txn) =
        a.session == b.session && a.site == b.site && a.writes == b.writes
        && Array.for_all2 ( == ) a.read_keys b.read_keys
        && Array.for_all2 ( == ) a.read_values b.read_values
      in
      History.length h = List.length txns
      && List.length got = List.length txns
      && List.for_all2 (fun a b -> a = b && shared a b) txns got)

(* The history keeps the store's own copy of each key read, not the
   caller's: the update's read shares the primary's key, the read-only
   transaction's the secondary's (both the string the preload installed);
   a key never written stays the caller's string. *)
let test_history_keeps_store_key () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "c" in
  let installed = "item:000001" in
  let fresh () = Bytes.to_string (Bytes.of_string installed) in
  (match System.update sys c (fun h -> Handle.put h installed "v0") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "preload failed");
  System.pump sys;
  let probe = fresh () in
  (match
     System.update sys c (fun h ->
         ignore (Handle.get h probe);
         Handle.put h "other" "v1")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let probe = fresh () and absent = fresh () ^ "-absent" in
  System.read sys c (fun h ->
      ignore (Handle.get h probe);
      ignore (Handle.get h absent));
  (match System.update sys c (fun h -> Handle.put h (fresh ()) "v2") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rewrite failed");
  match History.transactions (System.history sys) with
  | [ _; update; read; rewrite ] ->
    check_bool "a rewrite's write shares the primary's key" true
      (match rewrite.History.writes with
      | [ { Wal.key; _ } ] -> key == installed
      | _ -> false);
    check_bool "the update's read shares the primary's key" true
      (update.History.read_keys.(0) == installed);
    check_bool "the read shares the secondary's key" true
      (read.History.read_keys.(0) == installed);
    check_bool "a key never written stays the caller's" true
      (read.History.read_keys.(1) == absent);
    Alcotest.(check (list (pair string (option string))))
      "the values observed" [ (installed, Some "v0"); (absent, None) ]
      (Fixtures.read_list read)
  | txns -> Alcotest.failf "%d transactions recorded" (List.length txns)

(* Vacuuming the primary below the state a lagging secondary holds leaves
   the verdict clean: completeness reads no old version. (A check that
   rebuilt the primary's state S^1 found no key there once "a" was
   vacuumed, and failed a correct secondary.) *)
let test_system_check_after_compact () =
  let sys = System.create ~guarantee:Session.Weak () in
  let c = System.connect sys "w" in
  let update v =
    match System.update sys c (fun h -> Handle.put h "k" v) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  update "a";
  System.pump sys;
  update "b";
  update "c";
  ignore (System.compact sys);
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* With no history recorded, a writeset installed twice at a secondary is
   caught at its second commit: [check] names the site and the txn, and the
   flight recorder captured its window there. *)
let test_double_install_caught_without_history () =
  let flight = Lsr_obs.Flight.create () in
  let rs =
    Replica_set.create
      ~on_refresh_commit:(fun _ _ _ -> ())
      ~on_read:(fun _ ~age:_ ~missed:_ -> ())
      ~faults:None ~ship_aborted:false
      ~sinks:{ Lsr_obs.Sinks.obs = Lsr_obs.Obs.null; flight }
      ~record_history:false ~watchdog:false ~sites:1 Session.Weak
  in
  let update k =
    let u = Replica_set.begin_update rs ~session:"w" in
    Handle.put (Replica_set.handle u) k "v";
    match Replica_set.commit rs u with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  let rec settle () =
    match Replica_set.enabled rs with
    | [] -> ()
    | move :: _ ->
      ignore (Replica_set.fire rs move);
      settle ()
  in
  update "a";
  update "b";
  settle ();
  Alcotest.(check (list string)) "clean before" [] (fst (Replica_set.check rs));
  let wal = Mvcc.wal (Replica_set.primary rs) in
  let first = Wal.txn (Wal.entry wal 0) in
  Secondary.enqueue (Replica_set.secondary rs 0) (Wal.entry wal 0);
  Secondary.enqueue (Replica_set.secondary rs 0) (Wal.entry wal 1);
  settle ();
  Alcotest.(check (list string)) "the site and the txn"
    [ Printf.sprintf
        "secondary 0: state after primary txn %d differs from the primary's"
        first ]
    (fst (Replica_set.check rs));
  check_bool "the recorder captured it" true (Lsr_obs.Flight.triggered flight);
  Alcotest.(check (option string)) "as a completeness failure" (Some "completeness")
    (Lsr_obs.Flight.trigger_reason flight);
  (* Recovery replaces the copy, not the verdict on the one it replaced. *)
  ignore (Replica_set.fire rs (Replica_set.Crash 0));
  ignore (Replica_set.fire rs (Replica_set.Recover 0));
  update "c";
  settle ();
  Alcotest.(check (list string)) "the divergence survives recovery"
    [ Printf.sprintf
        "secondary 0: state after primary txn %d differs from the primary's"
        first ]
    (fst (Replica_set.check rs))

(* A recovered copy is restored into the replica set's one key dictionary:
   crashing and recovering a site adds no key to it, and the copy's keys
   are physically the primary's strings, not the backup's parsed copies. *)
let test_recovery_shares_keys () =
  let rs =
    Replica_set.create
      ~on_refresh_commit:(fun _ _ _ -> ())
      ~on_read:(fun _ ~age:_ ~missed:_ -> ())
      ~faults:None ~ship_aborted:false
      ~sinks:{ Lsr_obs.Sinks.obs = Lsr_obs.Obs.null; flight = Lsr_obs.Flight.null }
      ~record_history:false ~watchdog:false ~sites:2 Session.Weak
  in
  let update k =
    let u = Replica_set.begin_update rs ~session:"w" in
    Handle.put (Replica_set.handle u) (String.concat "" [ "key:"; k ]) "v";
    match Replica_set.commit rs u with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  let rec settle () =
    match Replica_set.enabled rs with
    | [] -> ()
    | move :: _ ->
      ignore (Replica_set.fire rs move);
      settle ()
  in
  List.iter update [ "a"; "b"; "c" ];
  settle ();
  let primary = Replica_set.primary rs in
  let keys = Mvcc.key_count primary in
  check_int "three keys" 3 keys;
  ignore (Replica_set.fire rs (Replica_set.Crash 1));
  ignore (Replica_set.fire rs (Replica_set.Recover 1));
  settle ();
  let copy = Secondary.db (Replica_set.secondary rs 1) in
  check_int "recovery added no key" keys (Mvcc.key_count primary);
  check_int "the copy shares the dictionary" keys (Mvcc.key_count copy);
  let scan db = List.of_seq (Mvcc.keys_from db "") in
  check_bool "the copy holds the primary's key strings" true
    (List.for_all2 ( == ) (scan primary) (scan copy));
  Alcotest.(check (list string)) "clean" [] (fst (Replica_set.check rs))

(* A retried update is one transaction: the core drops an aborted
   attempt's reads, so the record holds only the committed attempt's. *)
let test_retry_keeps_committed_reads () =
  let rs =
    Replica_set.create
      ~on_refresh_commit:(fun _ _ _ -> ())
      ~on_read:(fun _ ~age:_ ~missed:_ -> ())
      ~faults:None ~ship_aborted:false
      ~sinks:{ Lsr_obs.Sinks.obs = Lsr_obs.Obs.null; flight = Lsr_obs.Flight.null }
      ~record_history:true ~watchdog:true ~sites:1 Session.Strong_session
  in
  let txn = Replica_set.begin_update rs ~session:"c" in
  (* Each attempt reads [key] and writes it to "w" through the core's
     handle, which serves the attempt's own MVCC transaction. *)
  let attempt ~force_abort key =
    let h = Replica_set.handle txn in
    ignore (Handle.get h key);
    Handle.put h "w" key;
    Replica_set.commit ~force_abort rs txn
  in
  (match attempt ~force_abort:true "k1" with
  | Error Mvcc.Forced -> Replica_set.retry rs txn
  | Error _ | Ok () -> Alcotest.fail "forced abort did not abort");
  (match attempt ~force_abort:false "k2" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "retried attempt aborted");
  (match History.transactions (Replica_set.history rs) with
  | [ t ] ->
    Alcotest.(check (list (pair string (option string))))
      "the committed attempt's reads" [ ("k2", None) ] (Fixtures.read_list t);
    Alcotest.(check (list (pair string (option string))))
      "the committed attempt's writes" [ ("w", Some "k2") ]
      (List.map (fun { Wal.key; value } -> (key, value)) t.History.writes)
  | txns -> Alcotest.failf "%d transactions recorded" (List.length txns));
  match Replica_set.check rs with
  | [], _ -> ()
  | errors, _ -> Alcotest.fail (String.concat "; " errors)

let test_system_crash_recovery () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let c = System.connect sys ~secondary:0 "c" in
  (match System.update sys c (fun h -> Handle.put h "a" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  System.pump sys;
  System.crash_secondary sys 0;
  check_bool "crashed" true (System.is_crashed sys 0);
  (* Updates continue while the site is down. *)
  (match System.update sys c (fun h -> Handle.put h "b" "2") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  ignore (System.propagate sys);
  (match System.read sys c (fun _ -> ()) with
  | exception System.Secondary_down { secondary = 0 } -> ()
  | () -> Alcotest.fail "reads at a crashed site must fail");
  System.recover_secondary sys 0;
  check_bool "recovered" false (System.is_crashed sys 0);
  (* The recovered copy has the full primary state and a reseeded seq. *)
  let v = System.read sys c (fun h -> Handle.get h "b") in
  check_str_opt "recovered copy serves session reads" (Some "2") v;
  (* Updates after recovery flow through refresh again. *)
  (match System.update sys c (fun h -> Handle.put h "c" "3") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  System.pump sys;
  Alcotest.(check (list (pair string string)))
    "recovered secondary tracks primary"
    (Mvcc.committed_state (System.primary_db sys))
    (Mvcc.committed_state (System.secondary_db sys 0));
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* Recovery runs no transaction at the primary: after a crash, a recovery
   and a pump, every start record in the primary's log is closed by its
   commit or abort, so no secondary is left with a refresh it never ends. *)
let test_system_recovery_closes_every_start () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let c = System.connect sys ~secondary:1 "c" in
  let update k =
    match System.update sys c (fun h -> Handle.put h k "v") with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update failed"
  in
  update "a";
  System.pump sys;
  System.crash_secondary sys 0;
  update "b";
  System.recover_secondary sys 0;
  update "c";
  System.pump sys;
  Alcotest.(check (list int))
    "every start closed" []
    (Fixtures.open_starts (Mvcc.wal (System.primary_db sys)))

let migration_scenario guarantee =
  (* A session updates, reads at an up-to-date secondary, then migrates to
     a secondary that has not yet refreshed. Its next read would observe an
     older snapshot: strong session SI must wait, PCSI may proceed only if
     the stale copy still includes the session's own update. *)
  let sys = System.create ~secondaries:2 ~guarantee () in
  let c = System.connect sys ~secondary:0 "mover" in
  (match System.update sys c (fun h -> Handle.put h "x" "1") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  (* Refresh only secondary 0. *)
  ignore (System.propagate sys);
  ignore (System.refresh_one sys 0);
  (* An unrelated update advances the primary; refresh it into secondary 0
     only, so secondary 0 is ahead of secondary 1. *)
  let other = System.connect sys ~secondary:0 "other" in
  (match System.update sys other (fun h -> Handle.put h "y" "2") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  ignore (System.propagate sys);
  ignore (System.refresh_one sys 0);
  (* Read at the fresh secondary: snapshot includes both updates. *)
  ignore (System.read sys c (fun h -> Handle.get h "y"));
  (* Partially refresh secondary 1: apply the session's own update (x) but
     leave the later one (y) queued, so the copy is valid but older than the
     snapshot the session just observed. *)
  let rs = System.replica_set sys in
  let rec apply_first () =
    match Replica_set.fire rs (Replica_set.Refresh 1) with
    | Replica_set.Started -> apply_first ()
    | Replica_set.Dispatched _ ->
      ignore (Replica_set.fire rs (Replica_set.Commit 1))
    | _ -> Alcotest.fail "unexpected refresher outcome while lagging"
  in
  apply_first ();
  (* Migrate to the lagging secondary (has x but not y). *)
  let moved = System.migrate sys c 1 in
  System.read_nowait sys moved (fun h -> (Handle.get h "x", Handle.get h "y"))

let test_system_migration_strong_session_blocks () =
  match migration_scenario Session.Strong_session with
  | None -> () (* must wait: the stale copy would move its snapshot back *)
  | Some _ ->
    Alcotest.fail "strong session SI allowed a backward snapshot after migration"

let test_system_migration_pcsi_proceeds () =
  match migration_scenario Session.Prefix_consistent with
  | Some (x, y) ->
    check_str_opt "own update still visible" (Some "1") x;
    check_str_opt "other's update may be missing" None y
  | None -> Alcotest.fail "PCSI should not wait here"

let test_system_pcsi_guarantee_checked () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Prefix_consistent () in
  let c = System.connect sys "c" in
  (match System.update sys c (fun h -> Handle.put h "k" "v") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  let v = System.read sys c (fun h -> Handle.get h "k") in
  check_str_opt "PCSI reads own update" (Some "v") v;
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_system_connect_round_robin () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Weak () in
  let cs = List.init 6 (fun i -> System.connect sys (Printf.sprintf "c%d" i)) in
  Alcotest.(check (list int)) "round robin assignment" [ 0; 1; 2; 0; 1; 2 ]
    (List.map System.client_secondary cs)

let test_system_bad_secondary_index () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  Alcotest.check_raises "bad index" (Invalid_argument "System: no secondary 5")
    (fun () -> ignore (System.connect sys ~secondary:5 "c"))

(* Randomized end-to-end property: any interleaving of updates, reads and
   pumps satisfies the advertised guarantee and completeness. *)
let prop_system_random_guarantee guarantee name =
  let action_gen =
    QCheck.Gen.(
      list_size (int_range 5 40)
        (pair (int_range 0 3) (pair (int_range 0 2) (int_range 0 5))))
  in
  QCheck.Test.make ~name ~count:60 (QCheck.make action_gen) (fun actions ->
      let sys = System.create ~secondaries:2 ~guarantee () in
      let clients =
        Array.init 3 (fun i -> System.connect sys (Printf.sprintf "c%d" i))
      in
      List.iter
        (fun (action, (who, key)) ->
          let c = clients.(who) in
          let k = Printf.sprintf "k%d" key in
          match action with
          | 0 ->
            ignore
              (System.update sys c (fun h -> Handle.put h k (string_of_int key)))
          | 1 -> ignore (System.read sys c (fun h -> Handle.get h k))
          | 2 -> ignore (System.propagate sys)
          | _ -> System.pump sys)
        actions;
      System.pump sys;
      match System.check sys with Ok () -> true | Error _ -> false)

let prop_system_session_guarantee =
  prop_system_random_guarantee Session.Strong_session
    "random runs satisfy strong session SI"

let prop_system_strong_guarantee =
  prop_system_random_guarantee Session.Strong "random runs satisfy strong SI"

let prop_system_weak_guarantee =
  prop_system_random_guarantee Session.Weak "random runs satisfy weak SI"

let prop_system_pcsi_guarantee =
  prop_system_random_guarantee Session.Prefix_consistent
    "random runs satisfy PCSI"

(* --- Replication scheduler ----------------------------------------------------------- *)

let check_clean sys =
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* Three committed updates propagated to both sites; site 1's refresher is
   then fired from outside until it dispatches the first, which nobody
   commits. *)
let outside_dispatch () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let c = System.connect sys ~secondary:0 "c" in
  List.iter
    (fun k ->
      match System.update sys c (fun h -> Handle.put h k "v") with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "update failed")
    [ "a"; "b"; "c" ];
  check_int "shipped" 6 (System.propagate sys);
  let rs = System.replica_set sys in
  let rec dispatch () =
    match Replica_set.fire rs (Replica_set.Refresh 1) with
    | Replica_set.Started -> dispatch ()
    | Replica_set.Dispatched _ -> ()
    | _ -> Alcotest.fail "expected a dispatch"
  in
  dispatch ();
  check_int "one pending" 1
    (Secondary.pending_queue_length (System.secondary sys 1));
  sys

let test_scheduler_commits_outside_dispatch () =
  let sys = outside_dispatch () in
  check_int "the outside dispatch and the rest" 3 (System.refresh_one sys 1);
  check_int "caught up"
    (Mvcc.latest_commit_ts (System.primary_db sys))
    (Secondary.seq_dbsec (System.secondary sys 1));
  System.pump sys;
  check_clean sys

(* The site crashes and recovers between the outside dispatch and the
   pump: the recovery moves seq(DBsec) past the lost dispatch, and the
   refresher still follows the primary afterwards. *)
let test_scheduler_outside_dispatch_across_recovery () =
  let sys = outside_dispatch () in
  System.crash_secondary sys 1;
  System.recover_secondary sys 1;
  System.pump sys;
  let c = System.connect sys ~secondary:1 "d" in
  (match System.update sys c (fun h -> Handle.put h "d" "v") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update failed");
  System.pump sys;
  check_int "caught up"
    (Mvcc.latest_commit_ts (System.primary_db sys))
    (Secondary.seq_dbsec (System.secondary sys 1));
  check_clean sys

(* One fixed input of primary commits, some forced to abort, through the
   scheduler under both clocks: at once on an engine whose clock never
   moves, as [System] serves, and on per-site processor-sharing
   [Resource]s with a periodic propagator, as the simulator serves. Each
   site ends with the same seq(DBsec), the same digest and the same
   sequence of refresh commits. *)
let clocks_agree faults =
  let input =
    List.init 24 (fun j -> (Printf.sprintf "k%d" (j mod 5), j mod 7 = 3))
  in
  let run ~timed =
    let commits = Array.make 2 [] in
    let rs =
      Replica_set.create
        ~on_refresh_commit:(fun i ts _ -> commits.(i) <- ts :: commits.(i))
        ~on_read:(fun _ ~age:_ ~missed:_ -> ())
        ~faults:(Option.map (fun fc -> (fc, 7)) faults)
        ~ship_aborted:false
        ~sinks:
          { Lsr_obs.Sinks.obs = Lsr_obs.Obs.null; flight = Lsr_obs.Flight.null }
        ~record_history:false ~watchdog:false ~sites:2 Session.Weak
    in
    let eng = Lsr_sim.Engine.create () in
    let update (key, force_abort) =
      let txn = Replica_set.begin_update rs ~session:"c" in
      Handle.put (Replica_set.handle txn) key "v";
      match Replica_set.commit ~force_abort rs txn with
      | Ok () -> ()
      | Error _ -> Replica_set.finish_aborted rs txn
    in
    if timed then begin
      let res = Array.init 2 (fun _ -> Lsr_sim.Resource.create eng) in
      let serve i ~ops k =
        if ops = 0 then k ()
        else Lsr_sim.Resource.use res.(i) (0.02 *. float_of_int ops) k
      in
      let sched = Scheduler.create ~serial_refresh:false ~serve eng rs in
      Scheduler.start sched;
      List.iteri
        (fun j u ->
          Lsr_sim.Engine.after eng ~delay:(0.3 *. float_of_int j) (fun () ->
              update u))
        input;
      Lsr_sim.Engine.every eng 1. (fun () ->
          ignore
            (Scheduler.propagate sched ~deliver:(fun i ->
                 Scheduler.deliver sched i ())));
      if faults <> None then
        for i = 0 to 1 do
          Lsr_sim.Engine.every eng 0.5 (Scheduler.deliver sched i)
        done;
      Lsr_sim.Engine.run ~until:1_000. eng
    end
    else begin
      let sched =
        Scheduler.create ~serial_refresh:false
          ~serve:(fun _ ~ops:_ k -> k ())
          eng rs
      in
      let round () =
        ignore (Scheduler.propagate sched);
        for i = 0 to 1 do
          Scheduler.refresh sched i;
          Lsr_sim.Engine.run eng
        done
      in
      List.iteri
        (fun j u ->
          update u;
          if j mod 4 = 3 then round ())
        input;
      let rounds = ref 0 in
      while Replica_set.enabled rs <> [] && !rounds < 10_000 do
        incr rounds;
        round ()
      done;
      Alcotest.(check (float 0.)) "the clock never moves" 0.
        (Lsr_sim.Engine.now eng)
    end;
    check_bool "quiescent" true (Replica_set.enabled rs = []);
    List.init 2 (fun i ->
        let sec = Replica_set.secondary rs i in
        check_int "caught up" (Mvcc.latest_commit_ts (Replica_set.primary rs))
          (Secondary.seq_dbsec sec);
        ( Secondary.seq_dbsec sec,
          Mvcc.digest (Secondary.db sec),
          List.rev commits.(i) ))
  in
  let at_once = run ~timed:false and timed = run ~timed:true in
  Alcotest.(check (list (triple int int (list int))))
    "seq(DBsec), digest and refresh commits per site" at_once timed

let test_scheduler_clocks_agree () =
  clocks_agree None;
  clocks_agree (Some Channel.default)

(* --- Hash layout ------------------------------------------------------------------------ *)

(* [Session], [Secondary], [Propagation] and [Watchdog] key their tables on
   [Hashtbl.Make (String)] / [Hashtbl.Make (Int)]. Their bucket layout, and
   so any iteration over them, matches the polymorphic [Hashtbl] the goldens
   were recorded with only while these hashes agree: a toolchain that
   changes either fails here, not in a golden. *)
let test_monomorphic_hashes_match_polymorphic () =
  let agree what hash_mono to_key n =
    for i = 0 to n - 1 do
      let k = to_key i in
      if hash_mono k <> Hashtbl.hash k then
        Alcotest.failf "%s: hash of entry %d differs from Hashtbl.hash" what i
    done
  in
  agree "item keys" String.hash (Printf.sprintf "item:%06d") 200_000;
  agree "session labels" String.hash (fun i -> "s" ^ string_of_int i) 200_000;
  agree "ints" Int.hash (fun i -> (i * 7919) - 100_000) 200_000;
  agree "large ints" Int.hash (fun i -> max_int - i) 1_000

(* --- Suite -------------------------------------------------------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lsr_core"
    ([
      ( "hash-layout",
        [
          Alcotest.test_case "String/Int.hash = Hashtbl.hash" `Quick
            test_monomorphic_hashes_match_polymorphic;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "commit carries updates" `Quick
            test_propagation_commit_carries_updates;
          Alcotest.test_case "start before commit (liveness)" `Quick
            test_propagation_start_before_commit;
          Alcotest.test_case "abort discards updates" `Quick
            test_propagation_abort_discards_updates;
          Alcotest.test_case "ship_aborted mode" `Quick test_propagation_ship_aborted;
          Alcotest.test_case "truncated log fails loudly" `Quick
            test_propagation_truncated_log_fails_loudly;
          Alcotest.test_case "squashes rewrites" `Quick
            test_propagation_squashes_rewrites;
          Alcotest.test_case "squash keeps first-write position" `Quick
            test_propagation_squash_keeps_first_write_position;
          Alcotest.test_case "interleaved txns isolated" `Quick
            test_propagation_interleaved_txns_isolated;
          Alcotest.test_case "log order preserved" `Quick
            test_propagation_order_is_log_order;
          Alcotest.test_case "cursor position" `Quick test_propagation_cursor_position;
        ] );
      ( "secondary-refresh",
        [
          Alcotest.test_case "applies updates" `Quick test_refresh_applies_updates;
          Alcotest.test_case "sets seq(DBsec)" `Quick test_refresh_sets_seq_dbsec;
          Alcotest.test_case "abort record" `Quick test_refresh_abort_record;
          Alcotest.test_case "start blocks on pending (rel 1/2)" `Quick
            test_refresher_blocks_start_on_pending;
          Alcotest.test_case "commits in primary order (rel 3)" `Quick
            test_applicators_commit_in_primary_order;
          Alcotest.test_case "random order matches primary" `Quick
            test_refresh_commit_order_matches_primary_random;
          Alcotest.test_case "commit without start rejected" `Quick
            test_commit_without_start_rejected;
          Alcotest.test_case "reseed seq" `Quick test_reseed_seq;
          Alcotest.test_case "refresh commit callback" `Quick
            test_commit_head_names_primary_txn;
          Alcotest.test_case "applicator dispatch scales" `Slow
            test_applicator_dispatch_scales;
          Alcotest.test_case "exhaustive interleavings" `Quick
            test_exhaustive_interleavings;
          Alcotest.test_case "pretty printers" `Quick test_pretty_printers;
        ]
        @ qsuite [ prop_refresh_ordering_relationships ] );
      ( "session",
        [
          Alcotest.test_case "weak never blocks" `Quick test_session_weak_never_blocks;
          Alcotest.test_case "strong session blocks own label" `Quick
            test_session_strong_session_blocks_own_label;
          Alcotest.test_case "strong blocks everyone" `Quick
            test_session_strong_blocks_everyone;
          Alcotest.test_case "seq monotone" `Quick test_session_seq_monotone;
          Alcotest.test_case "pcsi ignores read floor" `Quick
            test_session_pcsi_ignores_read_floor;
          Alcotest.test_case "pcsi blocks after update" `Quick
            test_session_pcsi_blocks_after_update;
          Alcotest.test_case "guarantee names" `Quick test_session_guarantee_names;
          Alcotest.test_case "fence string round trip" `Quick
            test_fence_string_round_trip;
          Alcotest.test_case "fence commit-clock horizon" `Quick
            test_fence_clock_horizon;
          Alcotest.test_case "fence raises the weak floor" `Quick
            test_fence_raises_weak_floor;
          Alcotest.test_case "fence max-age threshold" `Quick
            test_fence_max_age_threshold;
        ]
        @ qsuite [ prop_clock_freshness_matches_model ] );
      ( "checker",
        [
          Alcotest.test_case "update-then-read inversion" `Quick
            test_checker_detects_inversion_update_then_read;
          Alcotest.test_case "cross-session allowed for session SI" `Quick
            test_checker_cross_session_inversion_allowed_in_session_mode;
          Alcotest.test_case "read-read inversion" `Quick
            test_checker_read_read_inversion;
          Alcotest.test_case "concurrent txns not inverted" `Quick
            test_checker_concurrent_txns_not_inverted;
          Alcotest.test_case "aborted txns ignored" `Quick
            test_checker_aborted_txns_ignored;
          Alcotest.test_case "weak SI read validation" `Quick
            test_checker_weak_si_read_validation;
          Alcotest.test_case "completeness" `Quick
            test_checker_completeness_positive_negative;
          Alcotest.test_case "secondary ahead" `Quick
            test_checker_completeness_secondary_ahead;
          Alcotest.test_case "completeness oracle coverage" `Quick
            test_completeness_oracle_coverage;
          Alcotest.test_case "completeness allocation bound" `Quick
            test_completeness_allocation_bound;
          Alcotest.test_case "fence audit" `Quick test_checker_fence_audit;
          Alcotest.test_case "fence audit edge cases" `Quick
            test_checker_fence_edge_cases;
        ]
        @ qsuite [ prop_inversions_match_bruteforce; prop_completeness_matches_oracle ] );
      ( "scheduler",
        [
          Alcotest.test_case "an outside dispatch is committed" `Quick
            test_scheduler_commits_outside_dispatch;
          Alcotest.test_case "an outside dispatch across a recovery" `Quick
            test_scheduler_outside_dispatch_across_recovery;
          Alcotest.test_case "both clocks agree" `Quick
            test_scheduler_clocks_agree;
        ] );
      ( "system",
        [
          Alcotest.test_case "weak shows inversion" `Quick
            test_system_weak_shows_inversion;
          Alcotest.test_case "session reads own writes" `Quick
            test_system_strong_session_reads_own_writes;
          Alcotest.test_case "cross-session stale ok (session)" `Quick
            test_system_strong_session_cross_session_stale_ok;
          Alcotest.test_case "strong blocks cross-session" `Quick
            test_system_strong_blocks_cross_session;
          Alcotest.test_case "read_nowait" `Quick test_system_read_nowait;
          Alcotest.test_case "read_nowait on a crashed site" `Quick
            test_system_read_nowait_crashed;
          Alcotest.test_case "fenced read: session_seq" `Quick
            test_system_fenced_read_session_seq;
          Alcotest.test_case "fenced read: exact and max-age" `Quick
            test_system_fenced_read_exact_and_max_age;
          Alcotest.test_case "fenced read: unsatisfiable future" `Quick
            test_system_fenced_read_future_unsatisfiable;
          Alcotest.test_case "forced abort" `Quick test_system_forced_abort;
          Alcotest.test_case "fcw abort in log" `Quick test_system_fcw_abort_surfaces;
          Alcotest.test_case "multi-secondary consistency" `Quick
            test_system_multi_secondary_consistency;
          Alcotest.test_case "secondaries share shipped writesets" `Quick
            test_system_secondaries_share_shipped_writesets;
          Alcotest.test_case "row api" `Quick test_system_row_api;
          Alcotest.test_case "handle schema/reads" `Quick
            test_handle_schema_and_reads;
          Alcotest.test_case "the history keeps the store's key" `Quick
            test_history_keeps_store_key;
          QCheck_alcotest.to_alcotest prop_history_round_trip;
          Alcotest.test_case "retry keeps committed reads"
            `Quick test_retry_keeps_committed_reads;
          Alcotest.test_case "check after compact" `Quick
            test_system_check_after_compact;
          Alcotest.test_case "double install caught without a history" `Quick
            test_double_install_caught_without_history;
          Alcotest.test_case "crash recovery" `Quick test_system_crash_recovery;
          Alcotest.test_case "recovery adds no key" `Quick
            test_recovery_shares_keys;
          Alcotest.test_case "recovery closes every start" `Quick
            test_system_recovery_closes_every_start;
          Alcotest.test_case "migration: strong session blocks" `Quick
            test_system_migration_strong_session_blocks;
          Alcotest.test_case "migration: pcsi proceeds" `Quick
            test_system_migration_pcsi_proceeds;
          Alcotest.test_case "pcsi checked end-to-end" `Quick
            test_system_pcsi_guarantee_checked;
          Alcotest.test_case "round robin connect" `Quick
            test_system_connect_round_robin;
          Alcotest.test_case "bad secondary index" `Quick
            test_system_bad_secondary_index;
        ]
        @ qsuite
            [
              prop_system_session_guarantee;
              prop_system_strong_guarantee;
              prop_system_weak_guarantee;
              prop_system_pcsi_guarantee;
            ] );
    ]
    @ Serializability_cases.groups)
