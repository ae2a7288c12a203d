(* Tests for the serializability toolkit (lsr_serializability): the
   serialization-graph cycle test (Mvsg), the ticket technique of §7
   (One_sr) and the P0-P5 detectors of the paper's appendix (Anomaly).
   test_core.exe runs [groups] after its own, so the cases keep the names
   they are printed under there. *)

open Lsr_storage
open Lsr_core
open Lsr_serializability

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_opt = Alcotest.(check (option string))

(* No P0-P4 anomaly (the ones SI excludes). *)
let si_safe h =
  Anomaly.(
    dirty_writes h = [] && dirty_reads h = [] && fuzzy_reads h = []
    && phantoms h = [] && lost_updates h = [])

let commit_exn db txn =
  match Mvcc.commit db txn with
  | Mvcc.Committed ts -> ts
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected abort"

(* --- Serializability (serialization-graph test) ---------------------------------------- *)

(* Record a committed update transaction into a history. *)
let record_update h ~session ~reads ~writes db body =
  let first_op = History.tick h in
  let snapshot = Mvcc.latest_commit_ts db in
  let txn = Mvcc.begin_txn db in
  body txn;
  let observed = List.map (fun k -> (k, Mvcc.read db txn k)) reads in
  List.iter (fun (k, v) -> Mvcc.write db txn k (Some v)) writes;
  let pending = Mvcc.pending_writes txn in
  match Mvcc.commit db txn with
  | Mvcc.Committed cts ->
    let read_keys, read_values = Fixtures.reads_of_list observed in
    Fixtures.add h
      {
        History.id = History.fresh_id h;
        session;
        kind = History.Update;
        site = "primary";
        first_op;
        finished = History.tick h;
        snapshot;
        commit_ts = Some cts;
        read_keys;
        read_values;
        writes = pending;
        fence = None;
      }
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected abort while recording"

let test_serializable_serial_history () =
  let h = History.create () in
  let db = Mvcc.create () in
  record_update h ~session:"a" ~reads:[] ~writes:[ ("x", "1") ] db (fun _ -> ());
  record_update h ~session:"b" ~reads:[ "x" ] ~writes:[ ("y", "2") ] db
    (fun _ -> ());
  record_update h ~session:"a" ~reads:[ "y" ] ~writes:[ ("x", "3") ] db
    (fun _ -> ());
  check_bool "serial history is serializable" true
    (Mvsg.serialization_cycle h = None)

let test_write_skew_not_serializable () =
  (* The classic SI write-skew execution has an rw-rw cycle. *)
  let h = History.create () in
  let db = Mvcc.create () in
  record_update h ~session:"init" ~reads:[] ~writes:[ ("x", "1"); ("y", "1") ]
    db (fun _ -> ());
  (* Two concurrent transactions, interleaved by hand. *)
  let first_op1 = History.tick h in
  let snap = Mvcc.latest_commit_ts db in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  let r1 = [ ("x", Mvcc.read db t1 "x"); ("y", Mvcc.read db t1 "y") ] in
  let r2 = [ ("x", Mvcc.read db t2 "x"); ("y", Mvcc.read db t2 "y") ] in
  Mvcc.write db t1 "x" (Some "0");
  Mvcc.write db t2 "y" (Some "0");
  let w1 = Mvcc.pending_writes t1 and w2 = Mvcc.pending_writes t2 in
  let c1 = match Mvcc.commit db t1 with Mvcc.Committed c -> c | _ -> assert false in
  let first_op2 = History.tick h in
  let c2 = match Mvcc.commit db t2 with Mvcc.Committed c -> c | _ -> assert false in
  let keys1, values1 = Fixtures.reads_of_list r1 in
  let keys2, values2 = Fixtures.reads_of_list r2 in
  Fixtures.add h
    {
      History.id = History.fresh_id h;
      session = "s1";
      kind = History.Update;
      site = "primary";
      first_op = first_op1;
      finished = History.tick h;
      snapshot = snap;
      commit_ts = Some c1;
      read_keys = keys1;
      read_values = values1;
      writes = w1;
      fence = None;
    };
  Fixtures.add h
    {
      History.id = History.fresh_id h;
      session = "s2";
      kind = History.Update;
      site = "primary";
      first_op = first_op2;
      finished = History.tick h;
      snapshot = snap;
      commit_ts = Some c2;
      read_keys = keys2;
      read_values = values2;
      writes = w2;
      fence = None;
    };
  check_bool "write skew breaks serializability" false
    (Mvsg.serialization_cycle h = None);
  match Mvsg.serialization_cycle h with
  | Some cycle -> check_bool "cycle has >= 2 nodes" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected a cycle"

(* The same two execution shapes, via the fixtures shared with the static
   analyzer's cross-validation suite: the cycle the checker reports must
   consist of exactly the two interleaved sign-off transactions, and the
   serial execution of the same operations must have no cycle at all. *)
let test_serialization_cycle_on_fixtures () =
  let h, mapping = Fixtures.write_skew_history () in
  (match Mvsg.serialization_cycle h with
  | None -> Alcotest.fail "write-skew fixture must have a cycle"
  | Some cycle ->
    let names =
      List.map
        (fun id ->
          match List.assoc_opt id mapping with
          | Some name -> name
          | None -> Alcotest.failf "cycle names unknown transaction %d" id)
        cycle
    in
    let sorted = List.sort_uniq compare names in
    Alcotest.(check (list string))
      "cycle is exactly the two sign-off transactions"
      [ "check_then_sign_off_x"; "check_then_sign_off_y" ]
      sorted);
  let serial, _ = Fixtures.serial_history () in
  Alcotest.(check bool)
    "serial execution of the same operations has no cycle" true
    (Mvsg.serialization_cycle serial = None)

let test_one_sr_prevents_write_skew () =
  (* The same two on-call doctors, but guarded with the ticket: the second
     committer aborts, and a retried execution preserves the invariant. *)
  let db = Mvcc.create () in
  let seed = Mvcc.begin_txn db in
  Mvcc.write db seed "oncall:a" (Some "yes");
  Mvcc.write db seed "oncall:b" (Some "yes");
  ignore (commit_exn db seed);
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  let on_call txn =
    (if Mvcc.read db txn "oncall:a" = Some "yes" then 1 else 0)
    + if Mvcc.read db txn "oncall:b" = Some "yes" then 1 else 0
  in
  if on_call t1 >= 2 then Mvcc.write db t1 "oncall:a" (Some "no");
  if on_call t2 >= 2 then Mvcc.write db t2 "oncall:b" (Some "no");
  One_sr.guard db t1;
  One_sr.guard db t2;
  (match Mvcc.commit db t1 with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> Alcotest.fail "first guarded commit must succeed");
  (match Mvcc.commit db t2 with
  | Mvcc.Aborted (Mvcc.Write_conflict _) -> ()
  | _ -> Alcotest.fail "guard must force a conflict");
  let still_on k = Mvcc.read_at db (Mvcc.latest_commit_ts db) k = Some "yes" in
  check_bool "invariant preserved" true (still_on "oncall:a" || still_on "oncall:b")

let test_one_sr_run_retries () =
  let db = Mvcc.create () in
  (* Interleave a conflicting guarded commit inside the body's first
     execution to force one retry. *)
  let attempts = ref 0 in
  let result =
    One_sr.run db (fun txn ->
        incr attempts;
        ignore (Mvcc.read db txn "x");
        if !attempts = 1 then begin
          match One_sr.run db (fun inner -> Mvcc.write db inner "x" (Some "other")) with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "inner run failed"
        end;
        Mvcc.write db txn "x" (Some "mine"))
  in
  (match result with
  | Ok ((), _) -> ()
  | Error _ -> Alcotest.fail "outer run should retry and succeed");
  check_int "two attempts" 2 !attempts;
  check_int "two guarded commits" 2 (One_sr.ticket_value db);
  check_str_opt "last committed value" (Some "mine")
    (Mvcc.read_at db (Mvcc.latest_commit_ts db) "x")

let test_one_sr_run_gives_up () =
  let db = Mvcc.create () in
  let result =
    One_sr.run ~max_attempts:3 db (fun txn ->
        ignore (Mvcc.read db txn "y");
        (* Always lose the race to a fresh guarded commit. *)
        (match One_sr.run db (fun inner -> Mvcc.write db inner "y" (Some "w")) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "inner run failed");
        Mvcc.write db txn "y" (Some "mine"))
  in
  match result with
  | Error attempts -> check_int "gave up after max attempts" 3 attempts
  | Ok _ -> Alcotest.fail "should have exhausted retries"

let test_one_sr_custom_ticket_domains () =
  (* Different tickets do not conflict with each other. *)
  let db = Mvcc.create () in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  One_sr.guard ~ticket:"$t:books$" db t1;
  One_sr.guard ~ticket:"$t:orders$" db t2;
  (match Mvcc.commit db t1 with Mvcc.Committed _ -> () | _ -> Alcotest.fail "t1");
  (match Mvcc.commit db t2 with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> Alcotest.fail "distinct tickets must not conflict");
  check_int "books domain count" 1 (One_sr.ticket_value ~ticket:"$t:books$" db)

(* Guarded random workloads are always serializable. *)
let prop_one_sr_serializable =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 10)
        (pair (list_size (int_range 0 2) (int_range 0 3))
           (list_size (int_range 1 2) (int_range 0 3))))
  in
  QCheck.Test.make ~name:"guarded histories are serializable" ~count:100
    (QCheck.make gen) (fun specs ->
      let h = History.create () in
      let db = Mvcc.create () in
      List.iteri
        (fun i (reads, writes) ->
          let reads = List.map (Printf.sprintf "k%d") reads in
          let writes =
            List.map (fun k -> (Printf.sprintf "k%d" k, Printf.sprintf "v%d" i)) writes
          in
          let first_op = History.tick h in
          let snapshot = Mvcc.latest_commit_ts db in
          match
            One_sr.run db (fun txn ->
                let observed = List.map (fun k -> (k, Mvcc.read db txn k)) reads in
                List.iter (fun (k, v) -> Mvcc.write db txn k (Some v)) writes;
                (observed, Mvcc.pending_writes txn))
          with
          | Ok ((observed, pending), cts) ->
            let read_keys, read_values = Fixtures.reads_of_list observed in
            Fixtures.add h
              {
                History.id = History.fresh_id h;
                session = Printf.sprintf "s%d" (i mod 3);
                kind = History.Update;
                site = "primary";
                first_op;
                finished = History.tick h;
                snapshot;
                commit_ts = Some cts;
                read_keys;
                read_values;
                writes = pending;
                fence = None;
              }
          | Error _ -> ())
        specs;
      (Mvsg.serialization_cycle h = None))


(* --- Anomaly detectors --------------------------------------------------------------- *)

let test_anomaly_dirty_write () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Begin 2;
      Anomaly.Write { txn = 1; key = "x"; value = Some "a"; preds = [] };
      Anomaly.Write { txn = 2; key = "x"; value = Some "b"; preds = [] };
      Anomaly.Commit 1;
      Anomaly.Commit 2;
    ]
  in
  Alcotest.(check (list (pair int int))) "P0 witnessed" [ (1, 2) ]
    (Anomaly.dirty_writes h);
  check_bool "not SI safe" false (si_safe h)

let test_anomaly_dirty_read () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Begin 2;
      Anomaly.Write { txn = 1; key = "x"; value = Some "dirty"; preds = [] };
      Anomaly.Read { txn = 2; key = "x"; value = Some "dirty" };
      Anomaly.Abort 1;
      Anomaly.Commit 2;
    ]
  in
  Alcotest.(check (list (pair int int))) "P1 witnessed" [ (1, 2) ]
    (Anomaly.dirty_reads h)

let test_anomaly_fuzzy_read () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Read { txn = 1; key = "x"; value = Some "v1" };
      Anomaly.Begin 2;
      Anomaly.Write { txn = 2; key = "x"; value = Some "v2"; preds = [] };
      Anomaly.Commit 2;
      Anomaly.Read { txn = 1; key = "x"; value = Some "v2" };
      Anomaly.Commit 1;
    ]
  in
  Alcotest.(check (list (pair int int))) "P2 witnessed" [ (1, 2) ]
    (Anomaly.fuzzy_reads h)

let test_anomaly_phantom () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Pred_read { txn = 1; pred = "price<10"; result = [ "a" ] };
      Anomaly.Begin 2;
      Anomaly.Write
        { txn = 2; key = "b"; value = Some "cheap"; preds = [ "price<10" ] };
      Anomaly.Commit 2;
      Anomaly.Pred_read { txn = 1; pred = "price<10"; result = [ "a"; "b" ] };
      Anomaly.Commit 1;
    ]
  in
  Alcotest.(check (list (pair int int))) "P3 witnessed" [ (1, 2) ]
    (Anomaly.phantoms h)

let test_anomaly_lost_update () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Begin 2;
      Anomaly.Read { txn = 1; key = "x"; value = Some "0" };
      Anomaly.Write { txn = 2; key = "x"; value = Some "t2"; preds = [] };
      Anomaly.Commit 2;
      Anomaly.Write { txn = 1; key = "x"; value = Some "t1"; preds = [] };
      Anomaly.Commit 1;
    ]
  in
  Alcotest.(check (list (pair int int))) "P4 witnessed" [ (1, 2) ]
    (Anomaly.lost_updates h)

let test_anomaly_write_skew () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Begin 2;
      Anomaly.Read { txn = 1; key = "x"; value = Some "1" };
      Anomaly.Read { txn = 1; key = "y"; value = Some "1" };
      Anomaly.Read { txn = 2; key = "x"; value = Some "1" };
      Anomaly.Read { txn = 2; key = "y"; value = Some "1" };
      Anomaly.Write { txn = 2; key = "x"; value = Some "0"; preds = [] };
      Anomaly.Commit 2;
      Anomaly.Write { txn = 1; key = "y"; value = Some "0"; preds = [] };
      Anomaly.Commit 1;
    ]
  in
  Alcotest.(check (list (pair int int))) "P5 witnessed" [ (1, 2) ]
    (Anomaly.write_skews h);
  (* Write skew alone leaves the history SI-safe: SI admits P5. *)
  check_bool "P5 does not break si_safe" true (si_safe h)

let test_anomaly_clean_serial_history () =
  let h =
    [
      Anomaly.Begin 1;
      Anomaly.Write { txn = 1; key = "x"; value = Some "1"; preds = [] };
      Anomaly.Commit 1;
      Anomaly.Begin 2;
      Anomaly.Read { txn = 2; key = "x"; value = Some "1" };
      Anomaly.Write { txn = 2; key = "x"; value = Some "2"; preds = [] };
      Anomaly.Commit 2;
    ]
  in
  check_bool "serial history is SI safe" true (si_safe h);
  check_int "no P5 either" 0 (List.length (Anomaly.write_skews h))

(* A random MVCC execution, transcribed to an anomaly trace, exhibits none of
   P0-P4. The detectors are value-based, so written values are made unique —
   as in Adya-style formalizations, versions must be distinguishable. *)
let prop_mvcc_histories_si_safe =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 6)
        (list_size (int_range 1 4) (pair (int_range 0 3) bool)))
  in
  QCheck.Test.make ~name:"Mvcc histories exhibit no P0-P4" ~count:200
    (QCheck.make gen) (fun txn_specs ->
      let db = Mvcc.create () in
      let trace = ref [] in
      let emit op = trace := op :: !trace in
      (* Run pairs of transactions concurrently. *)
      let rec run = function
        | [] -> ()
        | [ spec ] -> run_pair spec []
        | a :: b :: rest ->
          run_pair a b;
          run rest
      and run_pair a b =
        let start spec =
          let txn = Mvcc.begin_txn db in
          emit (Anomaly.Begin (Mvcc.txn_id txn));
          (txn, spec)
        in
        let ta, sa = start a in
        let tb, sb = start b in
        let counter = ref 0 in
        let step (txn, ops) =
          List.iter
            (fun (k, is_delete) ->
              let key = Printf.sprintf "k%d" k in
              let id = Mvcc.txn_id txn in
              let seen = Mvcc.read db txn key in
              emit (Anomaly.Read { txn = id; key; value = seen });
              incr counter;
              let v =
                if is_delete then None
                else Some (Printf.sprintf "v%d.%d" id !counter)
              in
              Mvcc.write db txn key v;
              emit (Anomaly.Write { txn = id; key; value = v; preds = [] }))
            ops
        in
        step (ta, sa);
        step (tb, sb);
        let finish txn =
          match Mvcc.commit db txn with
          | Mvcc.Committed _ -> emit (Anomaly.Commit (Mvcc.txn_id txn))
          | Mvcc.Aborted _ -> emit (Anomaly.Abort (Mvcc.txn_id txn))
        in
        finish ta;
        finish tb
      in
      run txn_specs;
      si_safe (List.rev !trace))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let groups =
    [
      ( "serializability",
        [
          Alcotest.test_case "serial history serializable" `Quick
            test_serializable_serial_history;
          Alcotest.test_case "write skew not serializable" `Quick
            test_write_skew_not_serializable;
          Alcotest.test_case "serialization cycle on shared fixtures" `Quick
            test_serialization_cycle_on_fixtures;
          Alcotest.test_case "ticket prevents write skew" `Quick
            test_one_sr_prevents_write_skew;
          Alcotest.test_case "one_sr run retries" `Quick test_one_sr_run_retries;
          Alcotest.test_case "one_sr gives up" `Quick test_one_sr_run_gives_up;
          Alcotest.test_case "ticket domains" `Quick
            test_one_sr_custom_ticket_domains;
        ]
        @ qsuite [ prop_one_sr_serializable ] );
      ( "anomaly",
        [
          Alcotest.test_case "P0 dirty write" `Quick test_anomaly_dirty_write;
          Alcotest.test_case "P1 dirty read" `Quick test_anomaly_dirty_read;
          Alcotest.test_case "P2 fuzzy read" `Quick test_anomaly_fuzzy_read;
          Alcotest.test_case "P3 phantom" `Quick test_anomaly_phantom;
          Alcotest.test_case "P4 lost update" `Quick test_anomaly_lost_update;
          Alcotest.test_case "P5 write skew" `Quick test_anomaly_write_skew;
          Alcotest.test_case "clean serial history" `Quick
            test_anomaly_clean_serial_history;
        ]
        @ qsuite [ prop_mvcc_histories_si_safe ] );
    ]
