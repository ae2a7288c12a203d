(* End-to-end integration tests: the paper's motivating bookstore scenario
   across all three guarantees, long mixed workloads with interleaved lazy
   propagation, failure injection, and cross-layer consistency between the
   embedded system and the simulator. *)

open Lsr_storage
open Lsr_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let update_exn sys c f =
  match System.update sys c f with
  | Ok v -> v
  | Error _ -> Alcotest.fail "update aborted unexpectedly"

(* The §1 example: a customer buys books (T_buy) and immediately checks the
   order status (T_check). *)
let bookstore_scenario guarantee =
  let sys = System.create ~secondaries:3 ~guarantee () in
  let customer = System.connect sys "customer-7" in
  (* Seed the catalogue. *)
  let admin = System.connect sys "admin" in
  update_exn sys admin (fun h ->
      Handle.row_put h ~table:"books" ~pk:"sicp"
        [ ("title", Row.Text "SICP"); ("stock", Row.Int 5) ]);
  System.pump sys;
  (* T_buy: decrement stock, create the order. *)
  update_exn sys customer (fun h ->
      ignore
        (Handle.row_update h ~table:"books" ~pk:"sicp" (fun row ->
             Row.set row "stock" (Row.Int (Row.int_exn row "stock" - 1))));
      Handle.row_put h ~table:"orders" ~pk:"o-1"
        [ ("book", Row.Text "sicp"); ("status", Row.Text "placed") ]);
  (* T_check: same session reads the order status. *)
  let status =
    System.read sys customer (fun h ->
        Option.map
          (fun row -> Row.text_exn row "status")
          (Handle.row_get h ~table:"orders" ~pk:"o-1"))
  in
  (sys, status)

let test_bookstore_weak_inversion () =
  let sys, status = bookstore_scenario Session.Weak in
  check_bool "weak SI: T_check misses the purchase" true (status = None);
  let v = Fixtures.audit ~clock:(System.commit_clock sys) (System.history sys) in
  check_bool "transaction inversion witnessed" true
    (v.Watchdog.v_inversions_in_session > 0);
  check_int "yet globally weak SI" 0 v.Watchdog.read_mismatches

let test_bookstore_session_si () =
  let sys, status = bookstore_scenario Session.Strong_session in
  check_bool "strong session SI: T_check sees the purchase" true
    (status = Some "placed");
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_bookstore_strong_si () =
  let sys, status = bookstore_scenario Session.Strong in
  check_bool "strong SI: T_check sees the purchase" true (status = Some "placed");
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_bookstore_other_customer_stale_under_session_si () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let alice = System.connect sys ~secondary:0 "alice" in
  let bob = System.connect sys ~secondary:1 "bob" in
  update_exn sys alice (fun h -> Handle.put h "stock:sicp" "4");
  (* Bob's session has no ordering constraint against Alice's: he may read
     a stale copy without blocking. *)
  let v = System.read sys bob (fun h -> Handle.get h "stock:sicp") in
  check_bool "bob reads stale without waiting" true (v = None);
  check_int "no read blocked" 0 (System.blocked_reads sys)

(* A long mixed workload with adversarial pump timing: correctness must be
   independent of when lazy propagation happens. *)
let test_long_mixed_workload () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Strong_session () in
  let clients =
    Array.init 6 (fun i -> System.connect sys (Printf.sprintf "client-%d" i))
  in
  let pseudo = ref 12345 in
  let next_rand bound =
    pseudo := ((!pseudo * 1103515245) + 12345) land 0x3FFFFFFF;
    !pseudo mod bound
  in
  for step = 1 to 400 do
    let c = clients.(next_rand 6) in
    let key = Printf.sprintf "acct:%d" (next_rand 20) in
    (match next_rand 10 with
    | 0 | 1 | 2 ->
      ignore
        (System.update sys c (fun h ->
             let current =
               match Handle.get h key with Some v -> int_of_string v | None -> 0
             in
             Handle.put h key (string_of_int (current + 1))))
    | 3 | 4 | 5 | 6 -> ignore (System.read sys c (fun h -> Handle.get h key))
    | 7 -> ignore (System.propagate sys)
    | 8 -> ignore (System.refresh_all sys)
    | _ -> System.pump sys);
    if step mod 100 = 0 then System.pump sys
  done;
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Every secondary converged to the primary's state. *)
  let reference = Mvcc.committed_state (System.primary_db sys) in
  for i = 0 to 2 do
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "secondary %d" i)
      reference
      (Mvcc.committed_state (System.secondary_db sys i))
  done

let test_crash_during_traffic () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  let c0 = System.connect sys ~secondary:0 "c0" in
  let c1 = System.connect sys ~secondary:1 "c1" in
  for i = 1 to 10 do
    ignore
      (System.update sys c0 (fun h ->
           Handle.put h (Printf.sprintf "pre:%d" i) "x"))
  done;
  System.pump sys;
  System.crash_secondary sys 1;
  (* Traffic continues against the surviving site. *)
  for i = 1 to 10 do
    ignore
      (System.update sys c0 (fun h ->
           Handle.put h (Printf.sprintf "during:%d" i) "y"));
    ignore (System.read sys c0 (fun h -> Handle.get h "pre:1"))
  done;
  System.pump sys;
  System.recover_secondary sys 1;
  (* The recovered site serves its sessions again, including data committed
     while it was down. *)
  let v = System.read sys c1 (fun h -> Handle.get h "during:10") in
  check_bool "recovered site has missed updates" true (v = Some "y");
  for i = 1 to 5 do
    ignore
      (System.update sys c1 (fun h ->
           Handle.put h (Printf.sprintf "post:%d" i) "z"))
  done;
  System.pump sys;
  Alcotest.(check (list (pair string string)))
    "recovered secondary fully converged"
    (Mvcc.committed_state (System.primary_db sys))
    (Mvcc.committed_state (System.secondary_db sys 1));
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_double_crash_recover () =
  let sys = System.create ~secondaries:2 ~guarantee:Session.Weak () in
  let c = System.connect sys ~secondary:0 "c" in
  System.crash_secondary sys 0;
  System.recover_secondary sys 0;
  System.crash_secondary sys 0;
  ignore (System.update sys c (fun h -> Handle.put h "x" "1"));
  System.recover_secondary sys 0;
  let v = System.read sys c (fun h -> Handle.get h "x") in
  check_bool "second recovery works" true (v = Some "1")

let test_recover_not_crashed_rejected () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  Alcotest.check_raises "recover healthy site"
    (Invalid_argument "System.recover_secondary: not crashed") (fun () ->
      System.recover_secondary sys 0)

(* Session relabeling: a client starting a new session sheds its ordering
   constraints, as in the simulator's session_time expiry. *)
let test_new_session_sheds_constraints () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "session-1" in
  ignore (System.update sys c (fun h -> Handle.put h "x" "1"));
  check_bool "own session would block" true
    (System.read_nowait sys c (fun h -> Handle.get h "x") = None);
  (* Same client, new session label. *)
  let c' = System.connect sys ~secondary:0 "session-2" in
  check_bool "fresh session reads immediately" true
    (System.read_nowait sys c' (fun h -> Handle.get h "x") <> None)

(* The embedded system and the simulator implement the same protocol; a
   deterministic trace driven through both must produce the same final
   primary state. The simulator's own checker validation is covered in
   test_experiments; here we sanity-check database convergence. *)
let test_simulator_secondary_converges_after_quiesce () =
  let params =
    {
      Lsr_workload.Params.default with
      Lsr_workload.Params.num_secondaries = 2;
      clients_per_secondary = 3;
      warmup = 10.;
      (* Leave dead air after the last possible propagation cycle so all
         refreshes finish before the run ends. *)
      duration = 300.;
      think_time = 3.;
      propagation_delay = 5.;
    }
  in
  let outcome =
    Lsr_experiments.Sim_system.run
      {
        (Lsr_experiments.Sim_system.config params Session.Strong_session ~seed:21) with
        Lsr_experiments.Sim_system.record_history = true;
      }
  in
  Alcotest.(check (list string)) "checker clean" []
    outcome.Lsr_experiments.Sim_system.check_errors;
  check_bool "refreshes happened" true
    (outcome.Lsr_experiments.Sim_system.refresh_commits > 0)

(* Indexed tables replicate like any other data: lookups at secondaries see
   exactly what refresh has installed, and compaction afterwards frees the
   version history without changing behaviour. *)
let test_indexed_tables_replicate () =
  let schema = [ ("books", [ "price" ]) ] in
  let sys =
    System.create ~secondaries:2 ~schema ~guarantee:Session.Strong_session ()
  in
  let c = System.connect sys "shop" in
  update_exn sys c (fun h ->
      Handle.row_put h ~table:"books" ~pk:"1"
        [ ("title", Row.Text "a"); ("price", Row.Int 10) ];
      Handle.row_put h ~table:"books" ~pk:"2"
        [ ("title", Row.Text "b"); ("price", Row.Int 10) ];
      Handle.row_put h ~table:"books" ~pk:"3"
        [ ("title", Row.Text "c"); ("price", Row.Int 20) ]);
  update_exn sys c (fun h ->
      ignore
        (Handle.row_update h ~table:"books" ~pk:"2" (fun row ->
             Row.set row "price" (Row.Int 20))));
  let cheap =
    System.read sys c (fun h ->
        Handle.row_lookup h ~table:"books" ~field:"price" ~value:(Row.Int 10))
  in
  Alcotest.(check (list string)) "index lookup at secondary" [ "1" ]
    (List.map fst cheap);
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Compaction keeps the system fully functional. *)
  let reclaimed = System.compact sys in
  check_bool "some versions reclaimed" true (reclaimed > 0);
  update_exn sys c (fun h ->
      Handle.row_put h ~table:"books" ~pk:"4"
        [ ("title", Row.Text "d"); ("price", Row.Int 10) ]);
  let cheap =
    System.read sys c (fun h ->
        Handle.row_lookup h ~table:"books" ~field:"price" ~value:(Row.Int 10))
  in
  Alcotest.(check (list string)) "lookup after compaction" [ "1"; "4" ]
    (List.map fst cheap);
  System.pump sys;
  Alcotest.(check (list (pair string string)))
    "replicas converged after compaction"
    (Mvcc.committed_state (System.primary_db sys))
    (Mvcc.committed_state (System.secondary_db sys 0))

let test_compact_reclaims_log_and_versions () =
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  for i = 1 to 20 do
    ignore (System.update sys c (fun h -> Handle.put h "hot" (string_of_int i)))
  done;
  System.pump sys;
  let before = Mvcc.version_count (System.primary_db sys) in
  check_bool "versions accumulated" true (before >= 20);
  let reclaimed = System.compact sys in
  check_bool "most versions reclaimed" true (reclaimed >= 2 * (before - 2));
  let v = System.read sys c (fun h -> Handle.get h "hot") in
  check_bool "latest value intact" true (v = Some "20");
  (* The primary log below the propagation cursor was reclaimed. *)
  let wal = Mvcc.wal (System.primary_db sys) in
  (match Wal.entry wal 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "compact should truncate consumed log entries");
  (* Replication continues normally on the truncated log. *)
  (match System.update sys c (fun h -> Handle.put h "hot" "21") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update after compact failed");
  System.pump sys;
  Alcotest.(check (list (pair string string)))
    "replicas track after compaction"
    (Mvcc.committed_state (System.primary_db sys))
    (Mvcc.committed_state (System.secondary_db sys 0))

(* SQL traffic, lazy pumps, a crash and a recovery, all at once: the full
   stack must stay convergent and checkable, and index lookups must agree
   with scans at every replica afterwards. *)
let test_sql_soak_with_crash () =
  let schema = [ ("items", [ "grp" ]) ] in
  let sys =
    System.create ~secondaries:2 ~schema ~guarantee:Session.Strong_session ()
  in
  let clients =
    Array.init 3 (fun i -> System.connect sys (Printf.sprintf "s%d" i))
  in
  let rng = Lsr_sim.Rng.create 2026 in
  let sql_exn c stmt =
    match Lsr_sql.Sql.run sys c stmt with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "sql failed (%s): %s" stmt e
  in
  for step = 1 to 250 do
    let c = clients.(Lsr_sim.Rng.uniform rng ~lo:0 ~hi:2) in
    (* Fail over: sessions of a crashed secondary are served elsewhere. *)
    let c =
      if System.is_crashed sys (System.client_secondary c) then
        System.migrate sys c 0
      else c
    in
    let pk = Lsr_sim.Rng.uniform rng ~lo:0 ~hi:15 in
    let grp = Lsr_sim.Rng.uniform rng ~lo:0 ~hi:3 in
    (match Lsr_sim.Rng.uniform rng ~lo:0 ~hi:9 with
    | 0 | 1 | 2 ->
      sql_exn c
        (Printf.sprintf
           "INSERT INTO items (pk, grp, step) VALUES ('i%d', %d, %d)" pk grp step)
    | 3 ->
      sql_exn c (Printf.sprintf "UPDATE items SET grp = %d WHERE pk = 'i%d'" grp pk)
    | 4 -> sql_exn c (Printf.sprintf "DELETE FROM items WHERE pk = 'i%d'" pk)
    | 5 | 6 ->
      sql_exn c (Printf.sprintf "SELECT * FROM items WHERE grp = %d" grp)
    | 7 -> sql_exn c "SELECT COUNT(*) FROM items"
    | _ -> ignore (System.propagate sys));
    if step = 80 then System.crash_secondary sys 1;
    if step = 160 then begin
      System.recover_secondary sys 1;
      System.pump sys
    end
  done;
  System.pump sys;
  (match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Index lookups agree with scans on every replica. *)
  List.iter
    (fun db ->
      let txn = Mvcc.begin_txn db in
      let h = Fixtures.handle ~schema db txn in
      for grp = 0 to 3 do
        let by_index =
          Handle.row_lookup h ~table:"items" ~field:"grp" ~value:(Row.Int grp)
        in
        let by_scan =
          Handle.row_scan h ~table:"items" ~where:(fun row ->
              Row.find row "grp" = Some (Row.Int grp))
        in
        Alcotest.(check int)
          (Printf.sprintf "grp %d consistent" grp)
          (List.length by_scan) (List.length by_index)
      done)
    [ System.primary_db sys; System.secondary_db sys 0; System.secondary_db sys 1 ];
  Alcotest.(check (list (pair string string)))
    "replicas converged"
    (Mvcc.committed_state (System.primary_db sys))
    (Mvcc.committed_state (System.secondary_db sys 1))

(* --- Journeys across the embedded system ---------------------------------------- *)

let test_journey_complete () =
  (* Every update transaction's causal journey through the embedded system
     must be complete — primary commit, shipping, then enqueue / refresh /
     commit on every secondary — with monotone timestamps. *)
  let module Flight = Lsr_obs.Flight in
  let secondaries = 2 in
  let flight = Flight.create () in
  let obs = Lsr_obs.Obs.create () in
  let sys =
    System.create ~secondaries ~guarantee:Session.Strong_session ~obs ~flight
      ()
  in
  let c = System.connect sys "writer" in
  for i = 1 to 3 do
    update_exn sys c (fun h -> Handle.put h (Printf.sprintf "k%d" i) "v")
  done;
  System.pump sys;
  let txns = Flight.txns flight in
  check_int "one journey per update" 3 (List.length txns);
  List.iter
    (fun txn ->
      let j =
        match Flight.journey flight ~txn with
        | Ok j -> j
        | Error _ -> Alcotest.failf "no journey for txn %d" txn
      in
      let count p = List.length (List.filter (fun e -> p e.Flight.ev) j) in
      check_int "one primary commit" 1
        (count (function Flight.Commit _ -> true | _ -> false));
      check_bool "shipped once" true
        (count (function Flight.Shipped _ -> true | _ -> false) >= 1);
      check_int "enqueued on every secondary" secondaries
        (count (function Flight.Enqueued _ -> true | _ -> false));
      check_int "refresh started on every secondary" secondaries
        (count (function Flight.Refresh_start _ -> true | _ -> false));
      check_int "refresh committed on every secondary" secondaries
        (count (function Flight.Refresh_commit _ -> true | _ -> false));
      (* Causal order: the journey starts at the primary and its timestamps
         never go backwards. *)
      (match j with
      | { Flight.ev = Flight.Commit _; site = None; _ } :: _ -> ()
      | _ -> Alcotest.fail "journey does not start with the primary commit");
      let rec mono = function
        | a :: (b :: _ as rest) -> a.Flight.time <= b.Flight.time && mono rest
        | [ _ ] | [] -> true
      in
      check_bool "monotone timestamps" true (mono j))
    txns;
  (* Every refresh commit left a lag sample in its site's histogram. *)
  let rows = Lsr_experiments.Lag_report.of_obs obs in
  check_int "one freshness row per secondary" secondaries (List.length rows);
  List.iter
    (fun r ->
      check_int
        ("refresh lags at " ^ r.Lsr_experiments.Lag_report.site)
        3 r.Lsr_experiments.Lag_report.refreshes)
    rows

let () =
  Alcotest.run "integration"
    [
      ( "bookstore",
        [
          Alcotest.test_case "weak SI inverts T_check" `Quick
            test_bookstore_weak_inversion;
          Alcotest.test_case "strong session SI sees purchase" `Quick
            test_bookstore_session_si;
          Alcotest.test_case "strong SI sees purchase" `Quick
            test_bookstore_strong_si;
          Alcotest.test_case "other customer stays lazy" `Quick
            test_bookstore_other_customer_stale_under_session_si;
        ] );
      ( "soak",
        [
          Alcotest.test_case "long mixed workload" `Slow test_long_mixed_workload;
          Alcotest.test_case "simulator converges" `Slow
            test_simulator_secondary_converges_after_quiesce;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash during traffic" `Quick test_crash_during_traffic;
          Alcotest.test_case "double crash/recover" `Quick test_double_crash_recover;
          Alcotest.test_case "recover healthy rejected" `Quick
            test_recover_not_crashed_rejected;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "new session sheds constraints" `Quick
            test_new_session_sheds_constraints;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "indexed tables replicate" `Quick
            test_indexed_tables_replicate;
          Alcotest.test_case "compact reclaims" `Quick
            test_compact_reclaims_log_and_versions;
          Alcotest.test_case "sql soak with crash" `Slow test_sql_soak_with_crash;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "journeys complete and monotone" `Quick
            test_journey_complete;
        ] );
    ]
