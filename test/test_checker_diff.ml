(* Differential battery for the polynomial judges: fuzzed seeded MVCC
   histories are judged by Lsr_core.Watchdog.replay (per-key version links
   walked down from the newest, floors captured at each first operation) and
   Lsr_serializability.Mvsg (per-key sorted writer arrays + binary search +
   iterative DFS), and by the quadratic oracle in Legacy_checker (list
   walks, recursive DFS). Every verdict must agree exactly, inversion
   witnesses pair for pair; serialization-cycle witnesses may differ
   textually (DFS visit order is not part of the contract) but each must be
   a genuine cycle under an independently-built edge relation. *)

open Lsr_storage
open Lsr_core
open Lsr_serializability
module Rng = Lsr_sim.Rng

let check_bool = Alcotest.(check bool)

let commit db txn =
  match Mvcc.commit db txn with
  | Mvcc.Committed cts -> Some cts
  | Mvcc.Aborted _ -> None

(* --- Fuzzed history generation ----------------------------------------------

   Batches of concurrent transactions run against one real MVCC instance.
   Stale snapshots (begin_txn_at) produce inversions and rw anti-
   dependencies; overlapping write sets produce first-committer-wins aborts;
   a rare post-hoc corruption of one recorded read produces weak-SI
   violations. Reads and writes really execute, so apart from the injected
   corruption every history is genuinely weak SI, and commits are recorded
   in commit-timestamp order, as a primary commits them. *)

let keys = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let gen_history seed =
  let rng = Rng.create (0x5EED + seed) in
  let h = History.create () in
  let db = Mvcc.create () in
  (let txn = Mvcc.begin_txn db in
   Array.iter (fun k -> Mvcc.write db txn k (Some "0")) keys;
   match commit db txn with Some _ -> () | None -> assert false);
  let nsessions = Rng.uniform rng ~lo:1 ~hi:4 in
  let value = ref 0 in
  let batches = Rng.uniform rng ~lo:3 ~hi:12 in
  for _ = 1 to batches do
    let batch = Rng.uniform rng ~lo:1 ~hi:3 in
    let started =
      List.init batch (fun _ ->
          let lag = Rng.uniform rng ~lo:0 ~hi:3 in
          let snapshot = max 0 (Mvcc.latest_commit_ts db - lag) in
          let txn = Mvcc.begin_txn_at db ~snapshot in
          let session =
            Printf.sprintf "s%d" (Rng.uniform rng ~lo:1 ~hi:nsessions)
          in
          let is_update = Rng.bernoulli rng ~p:0.6 in
          let first_op = History.tick h in
          let nreads = Rng.uniform rng ~lo:0 ~hi:3 in
          let reads =
            List.init nreads (fun _ ->
                let k = keys.(Rng.uniform rng ~lo:0 ~hi:(Array.length keys - 1)) in
                (k, Mvcc.read db txn k))
          in
          if is_update then begin
            let nwrites = Rng.uniform rng ~lo:1 ~hi:2 in
            for _ = 1 to nwrites do
              incr value;
              Mvcc.write db txn
                keys.(Rng.uniform rng ~lo:0 ~hi:(Array.length keys - 1))
                (Some (string_of_int !value))
            done
          end;
          (txn, session, is_update, first_op, reads, snapshot))
    in
    (* Finish the batch in a shuffled order so wall order and snapshot order
       genuinely interleave. *)
    let finish_order =
      List.sort
        (fun _ _ -> if Rng.bernoulli rng ~p:0.5 then 1 else -1)
        started
    in
    List.iter
      (fun (txn, session, is_update, first_op, reads, snapshot) ->
        let kind, commit_ts, writes =
          if is_update then begin
            let pending = Mvcc.pending_writes txn in
            if Rng.bernoulli rng ~p:0.1 then begin
              Mvcc.abort db txn;
              (History.Update, None, [])
            end
            else (History.Update, commit db txn, pending)
          end
          else begin
            Mvcc.end_read db txn;
            (History.Read_only, None, [])
          end
        in
        let writes = if commit_ts = None then [] else writes in
        let read_keys, read_values = Fixtures.reads_of_list reads in
        Fixtures.add h
          {
            History.id = History.fresh_id h;
            session;
            kind;
            site = "primary";
            first_op;
            finished = History.tick h;
            snapshot;
            commit_ts;
            read_keys;
            read_values;
            writes;
            fence = None;
          })
      finish_order
  done;
  (* Rare injected fault: corrupt one recorded read so the weak-SI sweep has
     something to find — both checkers must report it identically. *)
  if Rng.bernoulli rng ~p:0.15 then begin
    let txns = History.transactions h in
    let with_reads = List.filter (fun t -> t.History.read_keys <> [||]) txns in
    match with_reads with
    | [] -> h
    | _ ->
      let victim =
        List.nth with_reads
          (Rng.uniform rng ~lo:0 ~hi:(List.length with_reads - 1))
      in
      let corrupted = History.create () in
      List.iter
        (fun (t : History.txn) ->
          let t =
            if t.id = victim.id then begin
              let read_values = Array.copy t.read_values in
              read_values.(0) <- Some "corrupted";
              { t with History.read_values }
            end
            else t
          in
          Fixtures.add corrupted t)
        txns;
      corrupted
  end
  else h

(* --- Independent edge relation ----------------------------------------------

   A third, deliberately naive construction of the MVSG edge set, used only
   to certify witnesses: per-key committed-writer chains as sorted lists,
   ww between consecutive writers, wr from the snapshot-visible writer to
   the reader, rw from the reader to the next writer. *)

let edge_set h =
  let committed (t : History.txn) =
    match (t.kind, t.commit_ts) with
    | History.Update, Some _ -> true
    | History.Update, None -> false
    | History.Read_only, _ -> true
  in
  let txns = List.filter committed (History.transactions h) in
  let chain key =
    List.filter_map
      (fun (t : History.txn) ->
        match t.commit_ts with
        | Some cts when List.exists (fun { Wal.key = k; _ } -> k = key) t.writes
          ->
          Some (cts, t.id)
        | Some _ | None -> None)
      txns
    |> List.sort (fun (a, _) (b, _) -> Timestamp.compare a b)
  in
  let edges = Hashtbl.create 64 in
  let add a b = if a <> b then Hashtbl.replace edges (a, b) () in
  let all_keys =
    List.concat_map
      (fun (t : History.txn) ->
        List.map (fun { Wal.key; _ } -> key) t.writes
        @ Array.to_list t.read_keys)
      txns
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun key ->
      let ch = chain key in
      let rec ww = function
        | (_, a) :: ((_, b) :: _ as rest) ->
          add a b;
          ww rest
        | [ _ ] | [] -> ()
      in
      ww ch;
      List.iter
        (fun (t : History.txn) ->
          let own = List.exists (fun { Wal.key = k; _ } -> k = key) t.writes in
          if (not own) && Array.mem key t.read_keys then begin
            let visible =
              List.fold_left
                (fun acc (cts, id) ->
                  if Timestamp.compare cts t.snapshot <= 0 then Some id else acc)
                None ch
            in
            let next =
              List.find_opt
                (fun (cts, _) -> Timestamp.compare cts t.snapshot > 0)
                ch
            in
            (match visible with Some w -> add w t.id | None -> ());
            match next with Some (_, w) -> add t.id w | None -> ()
          end)
        txns)
    all_keys;
  edges

let certify_cycle h name = function
  | None -> ()
  | Some cycle ->
    let edges = edge_set h in
    check_bool (name ^ ": cycle nonempty") true (cycle <> []);
    check_bool
      (name ^ ": cycle nodes distinct")
      true
      (List.length (List.sort_uniq Int.compare cycle) = List.length cycle);
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | [ last ] -> [ (last, List.hd cycle) ]
      | [] -> []
    in
    List.iter
      (fun (a, b) ->
        check_bool
          (Printf.sprintf "%s: %d -> %d is a real MVSG edge" name a b)
          true
          (Hashtbl.mem edges (a, b)))
      (pairs cycle)

(* --- The differential assertion --------------------------------------------- *)

let legacy_inversion_ids l =
  List.map
    (fun { Legacy_checker.earlier; later } ->
      (earlier.History.id, later.History.id))
    l
  |> List.sort compare

let guarantees =
  [
    Session.Weak; Session.Prefix_consistent; Session.Strong_session;
    Session.Strong;
  ]

let assert_equivalent name h =
  let legacy = Legacy_checker.analyze h in
  let v = Fixtures.audit h in
  Alcotest.(check int)
    (name ^ ": weak-SI violations identical")
    (List.length legacy.Legacy_checker.weak_si_violations)
    v.Watchdog.read_mismatches;
  List.iter
    (fun (level, guarantee, expected, count) ->
      let pair = Alcotest.(list (pair int int)) in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s inversions counted" name level)
        (List.length expected) count;
      Alcotest.check pair
        (Printf.sprintf "%s: %s inversions identical" name level)
        (legacy_inversion_ids expected)
        (Fixtures.alert_pairs (Watchdog.alerts (Watchdog.replay ~guarantee h))))
    [
      ("strong-SI", Session.Strong, legacy.Legacy_checker.inversions_all,
       v.Watchdog.v_inversions_all);
      ("in-session", Session.Strong_session,
       legacy.Legacy_checker.inversions_in_session,
       v.Watchdog.v_inversions_in_session);
      ("PCSI", Session.Prefix_consistent,
       legacy.Legacy_checker.inversions_after_update,
       v.Watchdog.v_inversions_after_update);
    ];
  List.iter
    (fun g ->
      check_bool
        (Printf.sprintf "%s: %s verdict identical" name
           (Session.guarantee_name g))
        (Legacy_checker.satisfies g legacy)
        ((Fixtures.audit ~guarantee:g h).Watchdog.alerts_total = 0))
    guarantees;
  let c_new = Mvsg.serialization_cycle h in
  let c_old = Legacy_checker.serialization_cycle h in
  check_bool
    (name ^ ": serializability verdict identical")
    (c_old = None) (c_new = None);
  certify_cycle h (name ^ " (polynomial)") c_new;
  certify_cycle h (name ^ " (legacy)") c_old

let test_fixture_write_skew () =
  let h, _ = Fixtures.write_skew_history () in
  assert_equivalent "write skew" h;
  check_bool "write skew has a cycle" true
    (Mvsg.serialization_cycle h <> None)

let test_fixture_serial () =
  let h, _ = Fixtures.serial_history () in
  assert_equivalent "serial" h;
  check_bool "serial is serializable" true (Mvsg.serialization_cycle h = None)

let test_fuzz () =
  let cyclic = ref 0 and acyclic = ref 0 and weak_violations = ref 0 in
  for seed = 0 to 299 do
    let h = gen_history seed in
    assert_equivalent (Printf.sprintf "seed %d" seed) h;
    (if Mvsg.serialization_cycle h = None then incr acyclic else incr cyclic);
    if (Fixtures.audit h).Watchdog.read_mismatches > 0 then
      incr weak_violations
  done;
  (* The generator must actually exercise both branches of every verdict,
     else the differential proves nothing. *)
  check_bool "some fuzzed histories are non-serializable" true (!cyclic > 0);
  check_bool "some fuzzed histories are serializable" true (!acyclic > 0);
  check_bool "some fuzzed histories violate weak SI" true (!weak_violations > 0)

let test_fuzz_verdict_spread () =
  (* Strong-SI and session verdicts must also flip across the seed pool. *)
  let strong_ok = ref 0 and strong_bad = ref 0 in
  let session_ok = ref 0 and session_bad = ref 0 in
  for seed = 0 to 299 do
    let h = gen_history seed in
    let v = Fixtures.audit h in
    if v.Watchdog.v_inversions_all = 0 then incr strong_ok else incr strong_bad;
    if v.v_inversions_in_session = 0 then incr session_ok else incr session_bad
  done;
  check_bool "some histories are strong SI" true (!strong_ok > 0);
  check_bool "some histories are not strong SI" true (!strong_bad > 0);
  check_bool "some histories are strong session SI" true (!session_ok > 0);
  check_bool "some histories are not strong session SI" true (!session_bad > 0)

let () =
  Alcotest.run "lsr_checker_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "write-skew fixture" `Quick test_fixture_write_skew;
          Alcotest.test_case "serial fixture" `Quick test_fixture_serial;
          Alcotest.test_case "300 fuzzed histories" `Quick test_fuzz;
          Alcotest.test_case "verdict spread" `Quick test_fuzz_verdict_spread;
        ] );
    ]
