(* Tests for the strong-SI multiversion storage engine (lsr_storage):
   timestamps, logical log, MVCC semantics (snapshot visibility,
   first-committer-wins, read-your-writes), the anomaly guarantees SI makes,
   the row codec and the relational layer. *)

open Lsr_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Field-wise row equality; [compare] on floats is [Float.compare], so a
   NaN field equals itself. *)
let row_equal (a : Row.t) b = compare a b = 0
let check_str_opt = Alcotest.(check (option string))

let commit_exn db txn =
  match Mvcc.commit db txn with
  | Mvcc.Committed ts -> ts
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected abort"

let put db txn k v = Mvcc.write db txn k (Some v)

(* One committed transaction writing the given bindings. *)
let seed db bindings =
  let txn = Mvcc.begin_txn db in
  List.iter (fun (k, v) -> put db txn k v) bindings;
  ignore (commit_exn db txn)

(* --- Timestamp ----------------------------------------------------------------- *)

let test_timestamp_monotonic () =
  let src = Timestamp.source () in
  let a = Timestamp.next src in
  let b = Timestamp.next src in
  check_bool "strictly increasing" true (Timestamp.compare a b < 0);
  check_int "current is last issued" b (Timestamp.current src)

(* --- Wal ------------------------------------------------------------------------ *)

let test_wal_append_read () =
  let wal = Wal.create () in
  Wal.append wal (Wal.Start { txn = 1; ts = 1 });
  Wal.append wal (Wal.Start { txn = 2; ts = 2 });
  Wal.append wal
    (Wal.Commit { txn = 1; ts = 3; updates = [ { Wal.key = "x"; value = Some "1" } ] });
  check_int "length" 3 (Wal.length wal);
  let entries, next = Wal.read_from wal 0 in
  check_int "cursor" 3 next;
  check_int "all entries" 3 (List.length entries);
  let more, next' = Wal.read_from wal next in
  check_int "no new entries" 0 (List.length more);
  check_int "cursor stable" 3 next'

let test_wal_entry_bounds () =
  let wal = Wal.create () in
  Wal.append wal (Wal.Abort { txn = 1; writes = 0 });
  Alcotest.check_raises "out of range"
    (Invalid_argument "Wal.entry: offset 5 outside [0, 1)") (fun () ->
      ignore (Wal.entry wal 5))

let test_wal_truncate () =
  let wal = Wal.create () in
  for i = 1 to 10 do
    Wal.append wal (Wal.Start { txn = i; ts = i })
  done;
  Wal.truncate_before wal 6;
  check_int "length unchanged (offsets stable)" 10 (Wal.length wal);
  (match Wal.entry wal 6 with
  | Wal.Start { txn; _ } -> check_int "entry 6 survives" 7 txn
  | _ -> Alcotest.fail "wrong entry");
  Alcotest.check_raises "reclaimed entry"
    (Invalid_argument "Wal.entry: offset 2 outside [6, 10)") (fun () ->
      ignore (Wal.entry wal 2));
  let entries, _ = Wal.read_from wal 6 in
  check_int "read_from at the cut sees the suffix" 4 (List.length entries)

(* Satellite coverage for log-reclamation edge cases: a reader below the
   truncation point must fail loudly, and reading at exactly [length]
   returns an empty batch with a stable cursor. *)
let test_wal_read_from_below_truncation_raises () =
  let wal = Wal.create () in
  for i = 1 to 8 do
    Wal.append wal (Wal.Start { txn = i; ts = i })
  done;
  Wal.truncate_before wal 5;
  Alcotest.check_raises "below the cut"
    (Invalid_argument "Wal.read_from: offset 0 below truncation point 5")
    (fun () -> ignore (Wal.read_from wal 0));
  Alcotest.check_raises "just below the cut"
    (Invalid_argument "Wal.read_from: offset 4 below truncation point 5")
    (fun () -> ignore (Wal.read_from wal 4));
  (* At or above the cut still works. *)
  let entries, next = Wal.read_from wal 5 in
  check_int "suffix length" 3 (List.length entries);
  check_int "cursor" 8 next

let test_wal_read_from_at_length () =
  let wal = Wal.create () in
  for i = 1 to 3 do
    Wal.append wal (Wal.Start { txn = i; ts = i })
  done;
  let entries, next = Wal.read_from wal (Wal.length wal) in
  check_int "no entries at the head" 0 (List.length entries);
  check_int "cursor stays at length" (Wal.length wal) next;
  (* Still true when the whole log has been reclaimed. *)
  Wal.truncate_before wal (Wal.length wal);
  let entries, next = Wal.read_from wal (Wal.length wal) in
  check_int "no entries after full truncation" 0 (List.length entries);
  check_int "cursor stable after full truncation" (Wal.length wal) next

(* Truncation never changes what remains readable above the cut. *)
let prop_wal_truncate_preserves_suffix =
  QCheck.Test.make ~name:"wal truncation preserves the suffix" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 20) (int_range 0 100)) (int_range 0 25))
    (fun (txns, cut) ->
      let wal = Wal.create () in
      List.iter (fun t -> Wal.append wal (Wal.Start { txn = t; ts = t })) txns;
      let before, _ = Wal.read_from wal cut in
      Wal.truncate_before wal cut;
      let after, _ = Wal.read_from wal cut in
      before = after && Wal.length wal = List.length txns)

(* The sort-based squash that the linear one replaced, kept as its oracle:
   a sorted copy of the keys finds a repeat, and a table keeps each key's
   last value. *)
let squash_by_sorting updates =
  let keys = Array.of_list (List.map (fun u -> u.Wal.key) updates) in
  Array.sort String.compare keys;
  let rec adjacent i =
    i < Array.length keys && (String.equal keys.(i - 1) keys.(i) || adjacent (i + 1))
  in
  if not (adjacent 1) then updates
  else begin
    let last = Hashtbl.create 8 in
    List.iter (fun u -> Hashtbl.replace last u.Wal.key u.Wal.value) updates;
    List.filter_map
      (fun u ->
        match Hashtbl.find_opt last u.Wal.key with
        | None -> None
        | Some value ->
          Hashtbl.remove last u.Wal.key;
          Some { Wal.key = u.Wal.key; value })
      updates
  end

(* Writesets on either side of the short/long split, from a key space
   small enough that keys repeat or so large that they almost never do. *)
let arb_writeset =
  let open QCheck.Gen in
  let writeset =
    oneofl [ 4; 30; 1_000_000 ] >>= fun space ->
    list_size (int_range 0 60)
      (map2
         (fun k v -> { Wal.key = Printf.sprintf "k%d" k; value = v })
         (int_range 0 space)
         (opt (map string_of_int small_nat)))
  in
  QCheck.make writeset ~print:(fun us ->
      String.concat "," (List.map (fun u -> u.Wal.key) us))

(* The same updates, and the very input list when no key repeats. *)
let prop_squash_matches_sorting =
  QCheck.Test.make ~name:"squash agrees with the sort-based oracle" ~count:2000
    arb_writeset (fun updates ->
      let got = Wal.squash updates and want = squash_by_sorting updates in
      got = want && got == updates = (want == updates))

(* --- Mvcc: basic semantics ------------------------------------------------------- *)

let test_visibility_committed_before_start () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let txn = Mvcc.begin_txn db in
  check_str_opt "sees committed value" (Some "1") (Mvcc.read db txn "x")

let test_snapshot_ignores_later_commit () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let reader = Mvcc.begin_txn db in
  (* A concurrent writer commits x=2 after the reader started. *)
  seed db [ ("x", "2") ];
  check_str_opt "reader still sees old snapshot" (Some "1")
    (Mvcc.read db reader "x");
  let fresh = Mvcc.begin_txn db in
  check_str_opt "new transaction sees new value (strong SI)" (Some "2")
    (Mvcc.read db fresh "x")

let test_read_your_writes () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let txn = Mvcc.begin_txn db in
  put db txn "x" "mine";
  check_str_opt "own write visible" (Some "mine") (Mvcc.read db txn "x");
  put db txn "y" "fresh";
  check_str_opt "own insert visible" (Some "fresh") (Mvcc.read db txn "y")

let test_delete_tombstone () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "x" None;
  check_str_opt "own delete visible" None (Mvcc.read db txn "x");
  ignore (commit_exn db txn);
  let fresh = Mvcc.begin_txn db in
  check_str_opt "delete committed" None (Mvcc.read db fresh "x");
  check_bool "state omits deleted key" true
    (not (List.mem_assoc "x" (Mvcc.committed_state db)))

let test_first_committer_wins () =
  let db = Mvcc.create () in
  seed db [ ("x", "0") ];
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  put db t1 "x" "t1";
  put db t2 "x" "t2";
  ignore (commit_exn db t1);
  (match Mvcc.commit db t2 with
  | Mvcc.Aborted (Mvcc.Write_conflict key) ->
    Alcotest.(check string) "conflicting key" "x" key
  | Mvcc.Aborted Mvcc.Forced -> Alcotest.fail "wrong abort reason"
  | Mvcc.Committed _ -> Alcotest.fail "second committer must lose");
  let fresh = Mvcc.begin_txn db in
  check_str_opt "first committer's value" (Some "t1") (Mvcc.read db fresh "x")

let test_sequential_overwrite_allowed () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  seed db [ ("x", "2") ];
  let txn = Mvcc.begin_txn db in
  check_str_opt "sequential writers both commit" (Some "2")
    (Mvcc.read db txn "x")

let test_disjoint_concurrent_commits () =
  let db = Mvcc.create () in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  put db t1 "x" "1";
  put db t2 "y" "2";
  ignore (commit_exn db t1);
  ignore (commit_exn db t2);
  check_int "both committed" 2 (Mvcc.commit_count db)

let test_write_skew_possible () =
  (* The P5 pattern: disjoint write sets, crossed reads — SI admits it. *)
  let db = Mvcc.create () in
  seed db [ ("x", "1"); ("y", "1") ];
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  ignore (Mvcc.read db t1 "x");
  ignore (Mvcc.read db t1 "y");
  ignore (Mvcc.read db t2 "x");
  ignore (Mvcc.read db t2 "y");
  put db t1 "x" "t1";
  put db t2 "y" "t2";
  ignore (commit_exn db t1);
  ignore (commit_exn db t2);
  check_int "write skew committed (SI is not serializable)" 3
    (Mvcc.commit_count db)

let test_lost_update_prevented () =
  (* P4 pattern: both read x, both write x; FCW kills the second. *)
  let db = Mvcc.create () in
  seed db [ ("x", "0") ];
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  ignore (Mvcc.read db t1 "x");
  ignore (Mvcc.read db t2 "x");
  put db t1 "x" "1";
  put db t2 "x" "2";
  ignore (commit_exn db t1);
  match Mvcc.commit db t2 with
  | Mvcc.Aborted (Mvcc.Write_conflict _) -> ()
  | Mvcc.Aborted Mvcc.Forced | Mvcc.Committed _ ->
    Alcotest.fail "lost update not prevented"

let test_abort_discards () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  put db txn "x" "1";
  Mvcc.abort db txn;
  let fresh = Mvcc.begin_txn db in
  check_str_opt "aborted write invisible" None (Mvcc.read db fresh "x");
  check_int "nothing committed" 0 (Mvcc.commit_count db)

let test_operations_after_end_raise () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  ignore (commit_exn db txn);
  Alcotest.check_raises "read after commit"
    (Invalid_argument
       (Printf.sprintf "Mvcc.read: transaction %d is not active"
          (Mvcc.txn_id txn))) (fun () -> ignore (Mvcc.read db txn "x"))

let test_end_read_rejects_writers () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  put db txn "x" "1";
  Alcotest.check_raises "end_read with writes"
    (Invalid_argument "Mvcc.end_read: transaction has writes; commit or abort it")
    (fun () -> Mvcc.end_read db txn)

let test_end_read_creates_no_state () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let before = Mvcc.commit_count db in
  let txn = Mvcc.begin_txn db in
  ignore (Mvcc.read db txn "x");
  Mvcc.end_read db txn;
  check_int "no new state" before (Mvcc.commit_count db)

let test_last_write_wins_within_txn () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  put db txn "x" "first";
  put db txn "x" "second";
  let writes = Mvcc.pending_writes txn in
  check_int "squashed to one update" 1 (List.length writes);
  ignore (commit_exn db txn);
  let fresh = Mvcc.begin_txn db in
  check_str_opt "last write wins" (Some "second") (Mvcc.read db fresh "x")

let updates = Alcotest.(list (pair string (option string)))
let as_pairs = List.map (fun { Wal.key; value } -> (key, value))

(* Without a repeated key the buffered writes are the updates, in write
   order; asking for them mid-transaction must not freeze them. *)
let test_pending_writes_distinct_keys () =
  let db = Mvcc.create ~commit_log:true () in
  seed db [ ("z", "old") ];
  let txn = Mvcc.begin_txn db in
  check_str_opt "no writes yet: snapshot" (Some "old") (Mvcc.read db txn "z");
  Alcotest.check updates "nothing pending" [] (as_pairs (Mvcc.pending_writes txn));
  put db txn "b" "1";
  put db txn "a" "2";
  Alcotest.check updates "pending so far"
    [ ("b", Some "1"); ("a", Some "2") ]
    (as_pairs (Mvcc.pending_writes txn));
  Mvcc.write db txn "z" None;
  check_str_opt "own write" (Some "2") (Mvcc.read db txn "a");
  check_str_opt "own delete" None (Mvcc.read db txn "z");
  check_str_opt "unwritten key" None (Mvcc.read db txn "c");
  let expected = [ ("b", Some "1"); ("a", Some "2"); ("z", None) ] in
  Alcotest.check updates "write order" expected (as_pairs (Mvcc.pending_writes txn));
  Alcotest.(check (list string)) "written keys" [ "b"; "a"; "z" ]
    (Mvcc.written_keys txn);
  ignore (commit_exn db txn);
  Alcotest.check updates "installed as pending" expected
    (as_pairs (snd (List.nth (Mvcc.commits_with_updates db) 1)));
  Alcotest.check updates "pending after commit" expected
    (as_pairs (Mvcc.pending_writes txn))

(* A writeset handed over whole, short (scanned by reads) or long (read
   through a table): reads see it, commit checks first-committer-wins on it
   and installs it, and the pending writes and the commit list are that very
   list. *)
let test_write_all_reads_own_writes () =
  let db = Mvcc.create ~commit_log:true () in
  seed db [ ("old", "0"); ("gone", "0") ];
  let update key value = { Wal.key; value } in
  let short = [ update "a" (Some "1"); update "gone" None ] in
  let long =
    List.init 40 (fun i -> update (Printf.sprintf "k%02d" i) (Some (string_of_int i)))
  in
  List.iter
    (fun whole ->
      let txn = Mvcc.begin_txn db in
      Mvcc.write_all db txn whole;
      List.iter
        (fun { Wal.key; value } -> check_str_opt key value (Mvcc.read db txn key))
        whole;
      check_str_opt "unwritten key" (Some "0") (Mvcc.read db txn "old");
      check_bool "pending writes are the list" true (Mvcc.pending_writes txn == whole);
      Alcotest.check_raises "end_read"
        (Invalid_argument "Mvcc.end_read: transaction has writes; commit or abort it")
        (fun () -> Mvcc.end_read db txn);
      ignore (commit_exn db txn);
      let installed = snd (List.hd (List.rev (Mvcc.commits_with_updates db))) in
      check_bool "the commit list keeps the list" true (installed == whole))
    [ short; long ];
  check_str_opt "installed delete" None
    (Mvcc.read_at db (Mvcc.latest_commit_ts db) "gone");
  (* Written on after the whole writeset, with the table already built. *)
  let txn = Mvcc.begin_txn db in
  Mvcc.write_all db txn long;
  check_str_opt "whole write" (Some "1") (Mvcc.read db txn "k01");
  put db txn "k01" "new";
  put db txn "extra" "x";
  check_str_opt "later write wins" (Some "new") (Mvcc.read db txn "k01");
  check_str_opt "whole write kept" (Some "2") (Mvcc.read db txn "k02");
  check_str_opt "new key" (Some "x") (Mvcc.read db txn "extra");
  let expected =
    List.map
      (fun (key, value) -> if key = "k01" then (key, Some "new") else (key, value))
      (as_pairs long)
    @ [ ("extra", Some "x") ]
  in
  Alcotest.check updates "pending writes" expected (as_pairs (Mvcc.pending_writes txn));
  Alcotest.check_raises "write_all after writes"
    (Invalid_argument
       (Printf.sprintf "Mvcc.write_all: transaction %d has written already"
          (Mvcc.txn_id txn)))
    (fun () -> Mvcc.write_all db txn short);
  Mvcc.abort db txn;
  (* First-committer-wins walks the list and names its first conflict. *)
  let txn = Mvcc.begin_txn db in
  seed db [ ("k07", "late"); ("k03", "late") ];
  Mvcc.write_all db txn long;
  match Mvcc.commit db txn with
  | Mvcc.Aborted (Mvcc.Write_conflict key) ->
    Alcotest.(check string) "first conflict" "k03" key
  | Mvcc.Aborted Mvcc.Forced | Mvcc.Committed _ ->
    Alcotest.fail "expected a write conflict"

(* With repeats: one update per key, first-write position, last value. *)
let test_pending_writes_repeated_keys () =
  let db = Mvcc.create ~commit_log:true () in
  let txn = Mvcc.begin_txn db in
  put db txn "a" "1";
  put db txn "b" "2";
  Alcotest.check updates "before the repeat"
    [ ("a", Some "1"); ("b", Some "2") ]
    (as_pairs (Mvcc.pending_writes txn));
  put db txn "a" "3";
  put db txn "c" "4";
  Mvcc.write db txn "b" None;
  check_str_opt "latest own value" (Some "3") (Mvcc.read db txn "a");
  check_str_opt "own delete after write" None (Mvcc.read db txn "b");
  let expected = [ ("a", Some "3"); ("b", None); ("c", Some "4") ] in
  Alcotest.check updates "squashed" expected (as_pairs (Mvcc.pending_writes txn));
  Alcotest.(check (list string)) "written keys" [ "a"; "b"; "c" ]
    (Mvcc.written_keys txn);
  ignore (commit_exn db txn);
  Alcotest.check updates "installed squashed" expected
    (as_pairs (snd (List.hd (Mvcc.commits_with_updates db))));
  Alcotest.(check (list (pair string string)))
    "committed" [ ("a", "3"); ("c", "4") ] (Mvcc.committed_state db)

(* The ordered key index is built from the cells at the first scan and then
   from the keys installed since the last scan; scans interleaved with
   installs must still see every key ever written. Probes come on a random
   subset of steps, so the first scan may follow many installs, deletes of
   keys that have no other version, and vacuums. *)
type lazy_step =
  | Install of (string * string option) list
  | Delete_only  (** deletes a key nothing else writes *)
  | Vacuum_now
  | Probe of string

let lazy_steps_arb =
  let open QCheck.Gen in
  let key = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 1 3) in
  let value = frequency [ (3, return (Some "v")); (1, return None) ] in
  let step =
    frequency
      [
        (6, map (fun ws -> Install ws) (list_size (int_bound 5) (pair key value)));
        (1, return Delete_only);
        (1, return Vacuum_now);
        (2, map (fun k -> Probe k) key);
      ]
  in
  QCheck.make (list_size (int_bound 40) step)

let prop_key_index_lazy =
  QCheck.Test.make ~name:"lazy key index agrees with sorted reference" ~count:300
    lazy_steps_arb
    (fun steps ->
      let db = Mvcc.create () in
      let written = ref [] in
      let commit writes =
        let txn = Mvcc.begin_txn db in
        List.iter (fun (k, v) -> Mvcc.write db txn k v) writes;
        ignore (commit_exn db txn);
        written := List.map fst writes @ !written
      in
      List.for_all
        (function
          | Install writes ->
            commit writes;
            true
          | Delete_only ->
            commit [ (Printf.sprintf "deleted:%d" (List.length !written), None) ];
            true
          | Vacuum_now ->
            ignore (Mvcc.vacuum db ~before:(Mvcc.latest_commit_ts db));
            true
          | Probe probe ->
            let reference = List.sort_uniq String.compare !written in
            let from = List.of_seq (Mvcc.keys_from db probe) in
            let prefixed =
              List.rev (Mvcc.fold_keys db ~prefix:probe ~init:[] ~f:(fun acc k -> k :: acc))
            in
            from = List.filter (fun k -> String.compare k probe >= 0) reference
            && prefixed = List.filter (String.starts_with ~prefix:probe) reference)
        steps)

(* --- Mvcc: state reconstruction --------------------------------------------------- *)

let test_state_sequence () =
  let db = Mvcc.create ~commit_log:true () in
  let state i =
    (* S^i: the state as of the i-th commit's timestamp (S^0 is empty). *)
    Mvcc.state_at db
      (if i = 0 then Timestamp.zero else List.nth (Mvcc.commit_history db) (i - 1))
  in
  Alcotest.(check (list (pair string string))) "S^0 empty" [] (state 0);
  seed db [ ("a", "1") ];
  seed db [ ("b", "2") ];
  seed db [ ("a", "3") ];
  check_int "three commits" 3 (Mvcc.commit_count db);
  Alcotest.(check (list (pair string string))) "S^0 still empty" [] (state 0);
  Alcotest.(check (list (pair string string))) "S^1" [ ("a", "1") ] (state 1);
  Alcotest.(check (list (pair string string)))
    "S^2"
    [ ("a", "1"); ("b", "2") ]
    (state 2);
  Alcotest.(check (list (pair string string)))
    "S^3 = latest"
    [ ("a", "3"); ("b", "2") ]
    (state 3);
  Alcotest.(check (list (pair string string)))
    "committed_state" (state 3) (Mvcc.committed_state db)

let test_read_at () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let ts1 = Mvcc.latest_commit_ts db in
  seed db [ ("x", "2") ];
  check_str_opt "read_at old snapshot" (Some "1") (Mvcc.read_at db ts1 "x");
  check_str_opt "read_at now" (Some "2")
    (Mvcc.read_at db (Mvcc.latest_commit_ts db) "x")

let test_commit_history_ordered () =
  let db = Mvcc.create ~commit_log:true () in
  seed db [ ("a", "1") ];
  seed db [ ("b", "2") ];
  let history = Mvcc.commit_history db in
  check_int "two commits" 2 (List.length history);
  check_bool "ascending" true (List.sort Timestamp.compare history = history)

let test_fold_keys_prefix () =
  let db = Mvcc.create () in
  seed db [ ("t:books:1", "x"); ("t:books:2", "y"); ("t:orders:1", "z") ];
  let books =
    Mvcc.fold_keys db ~prefix:"t:books:" ~init:0 ~f:(fun acc _ -> acc + 1)
  in
  check_int "prefix filter" 2 books;
  (* Matching a key against the prefix allocates nothing: a fold over 10k
     matching keys allocates what walking [keys_from] over them does (the
     persistent sequence's own nodes), within 64 words. The fold's own
     accumulator is an int, so it allocates nothing either. *)
  seed db (List.init 10_000 (fun i -> (Printf.sprintf "t:books:%05d" i, "v")));
  let matching = 10_002 and prefix = "t:books:" in
  let count_keys () = Mvcc.fold_keys db ~prefix ~init:0 ~f:(fun acc _ -> acc + 1) in
  check_int "prefix fold" matching (count_keys ());
  let rec walk n seq =
    if n = matching then n
    else match seq () with Seq.Cons (_, rest) -> walk (n + 1) rest | Seq.Nil -> n
  in
  let words_of run =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. w0
  in
  let walked = words_of (fun () -> walk 0 (Mvcc.keys_from db prefix)) in
  let folded = words_of count_keys in
  if folded -. walked >= 64. then
    Alcotest.failf "prefix fold over 10k keys allocated %.0f words beyond the sequence"
      (folded -. walked)

let test_wal_records_transaction () =
  let log = Wal.create () in
  let db = Mvcc.create ~log () in
  let txn = Mvcc.begin_txn db in
  put db txn "x" "1";
  ignore (commit_exn db txn);
  let entries, _ = Wal.read_from log 0 in
  match entries with
  | [ Wal.Start s; Wal.Commit c ] ->
    check_int "start txn id" (Mvcc.txn_id txn) s.txn;
    (match c.updates with
    | [ u ] -> Alcotest.(check string) "update key" "x" u.Wal.key
    | _ -> Alcotest.fail "commit record should carry one update");
    check_bool "the installed list itself" true
      (c.updates == Mvcc.pending_writes txn);
    check_bool "commit after start" true (c.ts > s.ts)
  | _ -> Alcotest.fail "unexpected log shape"

let test_wal_records_abort () =
  let log = Wal.create () in
  let db = Mvcc.create ~log () in
  let txn = Mvcc.begin_txn db in
  put db txn "x" "1";
  put db txn "x" "2";
  Mvcc.abort db txn;
  let entries, _ = Wal.read_from log 0 in
  match List.rev entries with
  | Wal.Abort a :: _ ->
    check_int "abort logged" (Mvcc.txn_id txn) a.txn;
    check_int "every buffered write counted" 2 a.writes
  | _ -> Alcotest.fail "abort record missing"

(* A store given no log appends nothing anywhere and has no log to hand
   out; one given a log keeps it. *)
let test_unlogged_store () =
  let log = Wal.create () in
  let logged = Mvcc.create ~log () in
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let txn = Mvcc.begin_txn db in
  put db txn "x" "2";
  Mvcc.abort db txn;
  Mvcc.end_read db (Mvcc.begin_txn db);
  check_int "other log untouched" 0 (Wal.length log);
  check_bool "the given log" true (Mvcc.wal logged == log);
  Alcotest.check_raises "no log"
    (Invalid_argument "Mvcc.wal: this store was created without a log")
    (fun () -> ignore (Mvcc.wal db));
  Alcotest.check_raises "restored store has no log"
    (Invalid_argument "Mvcc.wal: this store was created without a log")
    (fun () -> ignore (Mvcc.wal (Mvcc.restore (Mvcc.serialize db))))

(* The commit list exists only when asked for: a store without one raises
   rather than answer [], which any completeness comparison would pass. *)
let test_commit_list_only_when_kept () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  check_int "commits still counted" 1 (Mvcc.commit_count db);
  Alcotest.check_raises "commits_with_updates"
    (Invalid_argument
       "Mvcc.commits_with_updates: this store was created without a commit list")
    (fun () -> ignore (Mvcc.commits_with_updates db));
  Alcotest.check_raises "commit_history"
    (Invalid_argument
       "Mvcc.commit_history: this store was created without a commit list")
    (fun () -> ignore (Mvcc.commit_history db));
  let kept = Mvcc.create ~commit_log:true () in
  seed kept [ ("x", "1") ];
  check_int "kept" 1 (List.length (Mvcc.commits_with_updates kept))

(* --- Mvcc: qcheck properties -------------------------------------------------------- *)

let small_key = QCheck.Gen.(map (Printf.sprintf "k%d") (int_range 0 5))

let gen_txn_writes =
  QCheck.Gen.(
    list_size (int_range 1 4) (pair small_key (opt (string_size (return 2)))))

let prop_fcw_exclusive =
  (* Of two concurrent transactions writing a common key, exactly the first
     committer survives. *)
  QCheck.Test.make ~name:"FCW: concurrent conflicting commits are exclusive"
    ~count:300
    QCheck.(make Gen.(pair gen_txn_writes gen_txn_writes))
    (fun (w1, w2) ->
      let keys ws = List.sort_uniq compare (List.map fst ws) in
      let overlap = List.exists (fun k -> List.mem k (keys w2)) (keys w1) in
      let db = Mvcc.create () in
      let t1 = Mvcc.begin_txn db in
      let t2 = Mvcc.begin_txn db in
      List.iter (fun (k, v) -> Mvcc.write db t1 k v) w1;
      List.iter (fun (k, v) -> Mvcc.write db t2 k v) w2;
      let ok1 =
        match Mvcc.commit db t1 with Mvcc.Committed _ -> true | _ -> false
      in
      let ok2 =
        match Mvcc.commit db t2 with Mvcc.Committed _ -> true | _ -> false
      in
      if overlap then ok1 && not ok2 else ok1 && ok2)

let prop_snapshot_stability =
  (* A reader's view never changes, no matter what commits around it. *)
  QCheck.Test.make ~name:"snapshot stability under concurrent commits"
    ~count:300
    QCheck.(make Gen.(list_size (int_range 1 6) gen_txn_writes))
    (fun txns ->
      let db = Mvcc.create () in
      seed db [ ("k0", "init0"); ("k3", "init3") ];
      let reader = Mvcc.begin_txn db in
      let probe () =
        List.map
          (fun k -> (k, Mvcc.read db reader k))
          [ "k0"; "k1"; "k2"; "k3"; "k4"; "k5" ]
      in
      let before = probe () in
      List.iter
        (fun writes ->
          let t = Mvcc.begin_txn db in
          List.iter (fun (k, v) -> Mvcc.write db t k v) writes;
          ignore (Mvcc.commit db t))
        txns;
      before = probe ())

let prop_state_replay =
  (* committed_state equals replaying commits_with_updates in order. *)
  QCheck.Test.make ~name:"committed state = replay of commit writesets"
    ~count:300
    QCheck.(make Gen.(list_size (int_range 0 8) gen_txn_writes))
    (fun txns ->
      let db = Mvcc.create ~commit_log:true () in
      List.iter
        (fun writes ->
          let t = Mvcc.begin_txn db in
          List.iter (fun (k, v) -> Mvcc.write db t k v) writes;
          ignore (Mvcc.commit db t))
        txns;
      let replayed = Hashtbl.create 16 in
      List.iter
        (fun (_, updates) ->
          List.iter
            (fun { Wal.key; value } ->
              match value with
              | Some v -> Hashtbl.replace replayed key v
              | None -> Hashtbl.remove replayed key)
            updates)
        (Mvcc.commits_with_updates db);
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) replayed []
        |> List.sort compare
      in
      expected = Mvcc.committed_state db)

let prop_fold_visible_matches_state_at =
  QCheck.Test.make ~name:"fold_visible = state_at at every commit" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 6) gen_txn_writes))
    (fun txns ->
      let db = Mvcc.create ~commit_log:true () in
      List.iter
        (fun writes ->
          let t = Mvcc.begin_txn db in
          List.iter (fun (k, v) -> Mvcc.write db t k v) writes;
          ignore (Mvcc.commit db t))
        txns;
      List.for_all
        (fun at ->
          let folded =
            Mvcc.fold_visible db ~at ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
          in
          List.sort compare folded = Mvcc.state_at db at)
        (Timestamp.zero :: Mvcc.commit_history db)
      && Mvcc.state_at db (Mvcc.latest_commit_ts db) = Mvcc.committed_state db)

(* --- Time travel (weak-SI start-timestamp assignment, §2.1) ----------------------------- *)

let test_time_travel_reads_history () =
  let db = Mvcc.create () in
  seed db [ ("x", "v1") ];
  let ts1 = Mvcc.latest_commit_ts db in
  seed db [ ("x", "v2") ];
  seed db [ ("x", "v3") ];
  let txn = Mvcc.begin_txn_at db ~snapshot:ts1 in
  check_str_opt "sees the historical state" (Some "v1") (Mvcc.read db txn "x");
  Mvcc.end_read db txn;
  let now_txn = Mvcc.begin_txn db in
  check_str_opt "present unaffected" (Some "v3") (Mvcc.read db now_txn "x")

let test_time_travel_snapshot_zero () =
  let db = Mvcc.create () in
  seed db [ ("x", "v1") ];
  let txn = Mvcc.begin_txn_at db ~snapshot:Timestamp.zero in
  check_str_opt "before any commit" None (Mvcc.read db txn "x")

let test_time_travel_future_rejected () =
  let db = Mvcc.create () in
  Alcotest.check_raises "future snapshot"
    (Invalid_argument "Mvcc.begin_txn_at: snapshot is in the future") (fun () ->
      ignore (Mvcc.begin_txn_at db ~snapshot:99))

let test_time_travel_write_conflicts () =
  (* Generalized SI: a writer from an old snapshot loses to any commit on
     its written keys after that snapshot... *)
  let db = Mvcc.create () in
  seed db [ ("x", "v1") ];
  let ts1 = Mvcc.latest_commit_ts db in
  seed db [ ("x", "v2") ];
  let stale = Mvcc.begin_txn_at db ~snapshot:ts1 in
  put db stale "x" "stale-write";
  (match Mvcc.commit db stale with
  | Mvcc.Aborted (Mvcc.Write_conflict "x") -> ()
  | _ -> Alcotest.fail "stale writer must lose FCW");
  (* ... but commits cleanly on untouched keys. *)
  let ok = Mvcc.begin_txn_at db ~snapshot:ts1 in
  put db ok "y" "fine";
  match Mvcc.commit db ok with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> Alcotest.fail "non-conflicting old-snapshot write must commit"

(* --- Maintenance: vacuum and backup --------------------------------------------------- *)

let test_vacuum_reclaims_old_versions () =
  let db = Mvcc.create () in
  for i = 1 to 5 do
    seed db [ ("x", string_of_int i) ]
  done;
  check_int "five versions" 5 (Mvcc.version_count db);
  let cut = Mvcc.latest_commit_ts db in
  let reclaimed = Mvcc.vacuum db ~before:cut in
  check_int "four reclaimed" 4 reclaimed;
  check_int "one version left" 1 (Mvcc.version_count db);
  let txn = Mvcc.begin_txn db in
  check_str_opt "latest value intact" (Some "5") (Mvcc.read db txn "x")

let test_vacuum_preserves_recent_snapshots () =
  let db = Mvcc.create () in
  seed db [ ("x", "1") ];
  let keep = Mvcc.latest_commit_ts db in
  seed db [ ("x", "2") ];
  seed db [ ("x", "3") ];
  ignore (Mvcc.vacuum db ~before:keep);
  check_str_opt "snapshot at cut intact" (Some "1") (Mvcc.read_at db keep "x");
  check_str_opt "later snapshots intact" (Some "3")
    (Mvcc.read_at db (Mvcc.latest_commit_ts db) "x")

let test_vacuum_noop_when_single_version () =
  let db = Mvcc.create () in
  seed db [ ("x", "1"); ("y", "2") ];
  check_int "nothing reclaimed" 0
    (Mvcc.vacuum db ~before:(Mvcc.latest_commit_ts db))

(* A vacuum with nothing to reclaim leaves every chain as it is, so it
   allocates nothing: its cost is the multi-version chains, not the store. *)
let test_vacuum_idle_allocates_nothing () =
  let db = Mvcc.create () in
  let keys = List.init 10_000 (fun i -> (Printf.sprintf "k%05d" i, "v0")) in
  seed db keys;
  let words_across_vacuum () =
    let before = Mvcc.latest_commit_ts db in
    let w0 = Gc.minor_words () in
    let reclaimed = Mvcc.vacuum db ~before in
    let words = Gc.minor_words () -. w0 in
    check_int "nothing reclaimed" 0 reclaimed;
    words
  in
  let fresh = words_across_vacuum () in
  if fresh >= 64. then
    Alcotest.failf "vacuum of single-version keys allocated %.0f words" fresh;
  seed db (List.map (fun (k, _) -> (k, "v1")) keys);
  check_int "full vacuum reclaims" 10_000
    (Mvcc.vacuum db ~before:(Mvcc.latest_commit_ts db));
  let again = words_across_vacuum () in
  if again >= 64. then
    Alcotest.failf "vacuum after a full vacuum allocated %.0f words" again

let test_present_key_reads_allocate_nothing () =
  let db = Mvcc.create () in
  let keys = Array.init 10_000 (Printf.sprintf "item:%06d") in
  seed db (Array.to_list (Array.map (fun k -> (k, "v0")) keys));
  let at = Mvcc.latest_commit_ts db in
  let txn = Mvcc.begin_txn db in
  let w0 = Gc.minor_words () in
  Array.iter (fun k -> ignore (Mvcc.read_at db at k)) keys;
  Array.iter (fun k -> ignore (Mvcc.read db txn k)) keys;
  let words = Gc.minor_words () -. w0 in
  check_str_opt "reads see the value" (Some "v0") (Mvcc.read db txn keys.(42));
  if words >= 64. then
    Alcotest.failf "20k reads of present keys allocated %.0f words" words

(* The exact heap footprint of a store that has never been scanned: per key
   one cell and its value's option box, per older version one chain block
   and its option box, per multi-version key one cons of the vacuum list,
   and the bucket array. There is no key index and no list of new keys
   until the first scan; after it, the index is one [Set] node per key. *)
let test_unscanned_store_footprint () =
  let cell_words = 7 (* header, key, hash, ts, value, older, next *)
  and version_words = 4 (* header, committed_at, value, below *)
  and option_words = 2 (* header, the value string *)
  and multi_words = 3 (* header, head, tail *)
  and set_node_words = 5 (* header, l, v, r, h *) in
  let keys = 3_000 and rewritten = 500 and rounds = 2 in
  let overwrites = rewritten * rounds in
  let key = Array.init keys (Printf.sprintf "k%06d") in
  let db = Mvcc.create () in
  let reachable () = Obj.reachable_words (Obj.repr db) in
  (* The store's fixed part: everything an empty store reaches but its
     1,024-slot bucket array. *)
  let fixed = reachable () - (1 + 1_024) in
  let words_of s = Obj.reachable_words (Obj.repr s) in
  let string_words = ref (Array.fold_left (fun acc k -> acc + words_of k) 0 key) in
  let install count =
    let txn = Mvcc.begin_txn db in
    for i = 0 to count - 1 do
      let value = Printf.sprintf "v%d:%d" (Mvcc.commit_count db) i in
      string_words := !string_words + words_of value;
      Mvcc.write db txn key.(i) (Some value)
    done;
    ignore (commit_exn db txn)
  in
  install keys;
  for _ = 1 to rounds do
    install rewritten
  done;
  check_int "versions" (keys + overwrites) (Mvcc.version_count db);
  (* The buckets double whenever the keys exceed twice their number. *)
  let rec buckets b = if keys > 2 * b then buckets (2 * b) else b in
  let unscanned =
    fixed + 1 + buckets 1_024
    + (keys * (cell_words + option_words))
    + (overwrites * (version_words + option_words))
    + (rewritten * multi_words) + !string_words
  in
  check_int "words of an unscanned store" unscanned (reachable ());
  let (_ : string Seq.t) = Mvcc.keys_from db "" in
  check_int "words once scanned" (unscanned + (keys * set_node_words)) (reachable ())

type vacuum_step = Commit of (string * string option) list | Vacuum of int

(* The trim rule applied to every chain of a plain key -> versions model
   (newest first): keep the versions newer than [before] and the one visible
   at it. Returns the trimmed chain and the number dropped. *)
let model_trim ~before chain =
  let rec walk kept = function
    | [] -> (List.rev kept, 0)
    | ((ts, _) as v) :: rest ->
      if ts <= before then (List.rev (v :: kept), List.length rest)
      else walk (v :: kept) rest
  in
  walk [] chain

let rec model_read ~at = function
  | [] -> None
  | (ts, value) :: rest -> if ts <= at then value else model_read ~at rest

let prop_vacuum_matches_full_scan =
  let gen_step =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map
              (fun ws -> Commit ws)
              (list_size (int_range 0 4) (pair small_key (opt (string_size (return 2)))))
          );
          (1, map (fun r -> Vacuum r) (int_range 0 100));
        ])
  in
  QCheck.Test.make ~name:"vacuum matches the full-scan trim" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 30) gen_step))
    (fun steps ->
      let db = Mvcc.create () in
      let model = Hashtbl.create 8 in
      let chain k = Option.value (Hashtbl.find_opt model k) ~default:[] in
      let floor = ref 0 in
      let agrees () =
        let latest = Mvcc.latest_commit_ts db in
        let reads_agree k =
          List.for_all
            (fun at -> Mvcc.read_at db at k = model_read ~at (chain k))
            (List.init (latest - !floor + 2) (fun i -> !floor + i))
        in
        Mvcc.version_count db
        = Hashtbl.fold (fun _ c acc -> acc + List.length c) model 0
        && List.for_all reads_agree (List.init 6 (Printf.sprintf "k%d"))
      in
      List.for_all
        (fun step ->
          (match step with
          | Commit writes ->
            let txn = Mvcc.begin_txn db in
            List.iter (fun (k, v) -> Mvcc.write db txn k v) writes;
            let ts = commit_exn db txn in
            let last = Hashtbl.create 4 in
            List.iter (fun (k, v) -> Hashtbl.replace last k v) writes;
            Hashtbl.iter (fun k v -> Hashtbl.replace model k ((ts, v) :: chain k)) last;
            true
          | Vacuum r ->
            let before = Mvcc.latest_commit_ts db * r / 100 in
            floor := Int.max !floor before;
            let expected =
              Hashtbl.fold
                (fun k c acc ->
                  let kept, dropped = model_trim ~before c in
                  Hashtbl.replace model k kept;
                  acc + dropped)
                (Hashtbl.copy model) 0
            in
            Mvcc.vacuum db ~before = expected)
          && agrees ())
        steps)

(* --- The key index against a Map model --------------------------------------- *)

module Smap = Map.Make (String)

(* Two distinct keys with the same [String.hash]: a lookup that trusted the
   hash alone would confuse them. About 2^15 probes find a pair. *)
let colliding_keys =
  let seen = Hashtbl.create 65_536 in
  let rec probe i =
    let k = Printf.sprintf "clash:%d" i in
    match Hashtbl.find_opt seen (String.hash k) with
    | Some other -> [ other; k ]
    | None ->
      Hashtbl.add seen (String.hash k) k;
      probe (i + 1)
  in
  lazy (probe 0)

type index_step =
  | Txn of (int * string option) list
  | Aborted_txn of (int * string option) list
  | Lost_race of int * (int * string option) list
      (** a concurrent commit writes the key first; ours must then abort *)
  | Vacuum_at of int

let index_keys = 6_000

(* Keys [0, index_keys) are "item:%06d"; the two colliding keys follow. *)
let index_key i =
  if i < index_keys then Printf.sprintf "item:%06d" i
  else List.nth (Lazy.force colliding_keys) (i - index_keys)

let prop_index_matches_map_model =
  let open QCheck.Gen in
  let key =
    frequency
      [ (30, int_range 0 (index_keys - 1)); (1, int_range index_keys (index_keys + 1)) ]
  in
  let value =
    frequency
      [ (5, map Option.some (string_size ~gen:printable (int_range 0 3))); (1, return None) ]
  in
  let write = pair key value in
  let few = list_size (int_range 0 8) write in
  let step =
    frequency
      [
        (6, map (fun ws -> Txn ws) (list_size (int_range 0 600) write));
        (1, map (fun ws -> Aborted_txn ws) few);
        (1, map2 (fun k ws -> Lost_race (k, ws)) key few);
        (2, map (fun r -> Vacuum_at r) (int_range 0 100));
      ]
  in
  (* The store doubles its 1,024 buckets at 2,049 keys and again at 4,097.
     A bulk load of 2,000-4,000 keys, then batches over 6,000, cross one or
     both doublings with repeats, deletes, aborts, conflicts and vacuums in
     between. *)
  let gen = pair (int_range 2_000 4_000) (list_size (int_range 10 30) step) in
  QCheck.Test.make ~name:"key index matches a Map model across resizes" ~count:12
    (QCheck.make gen) (fun (load, steps) ->
      let db = Mvcc.create () in
      (* Newest-first (commit ts, value) per key, as [model_trim] expects. *)
      let model = ref Smap.empty in
      let chain k = Option.value (Smap.find_opt k !model) ~default:[] in
      let cut = ref 0 in
      let commit_writes writes =
        let txn = Mvcc.begin_txn db in
        List.iter (fun (i, v) -> Mvcc.write db txn (index_key i) v) writes;
        let ts = commit_exn db txn in
        let last =
          List.fold_left (fun m (i, v) -> Smap.add (index_key i) v m) Smap.empty writes
        in
        model := Smap.fold (fun k v m -> Smap.add k ((ts, v) :: chain k) m) last !model
      in
      let apply = function
        | Txn ws -> commit_writes ws
        | Aborted_txn ws ->
          let txn = Mvcc.begin_txn db in
          List.iter (fun (i, v) -> Mvcc.write db txn (index_key i) v) ws;
          Mvcc.abort db txn
        | Lost_race (k, ws) ->
          let late = Mvcc.begin_txn db in
          commit_writes [ (k, Some "first") ];
          List.iter
            (fun (i, v) -> Mvcc.write db late (index_key i) v)
            ((k, Some "late") :: ws);
          (match Mvcc.commit db late with
          | Mvcc.Aborted (Mvcc.Write_conflict _) -> ()
          | Mvcc.Aborted Mvcc.Forced | Mvcc.Committed _ ->
            Alcotest.fail "first-committer-wins did not abort the later writer")
        | Vacuum_at r ->
          let before = Mvcc.latest_commit_ts db * r / 100 in
          cut := Int.max !cut before;
          let expected = ref 0 in
          model :=
            Smap.map
              (fun c ->
                let kept, dropped = model_trim ~before c in
                expected := !expected + dropped;
                kept)
              !model;
          check_int "versions reclaimed" !expected (Mvcc.vacuum db ~before)
      in
      commit_writes (List.init load (fun i -> (i, Some "v0")));
      List.iter apply steps;
      let latest = Mvcc.latest_commit_ts db in
      let reads_agree k c =
        let rec from at =
          at > latest || (Mvcc.read_at db at k = model_read ~at c && from (at + 1))
        in
        from !cut
      in
      let present =
        Smap.fold
          (fun k c acc -> match c with (_, Some v) :: _ -> (k, v) :: acc | _ -> acc)
          !model []
        |> List.rev
      in
      let absent = List.init 100 (fun i -> Printf.sprintf "absent:%d" i) in
      Smap.for_all reads_agree !model
      && List.for_all (fun k -> Mvcc.read_at db latest k = None) absent
      && Mvcc.version_count db = Smap.fold (fun _ c acc -> acc + List.length c) !model 0
      && Mvcc.committed_state db = present
      && Mvcc.committed_state (Mvcc.restore (Mvcc.serialize db)) = present)

let test_serialize_restore_roundtrip () =
  let db = Mvcc.create () in
  seed db [ ("a", "1"); ("b", "two"); ("c", "3:with;delims") ];
  seed db [ ("a", "updated") ];
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "b" None;
  (match Mvcc.commit db txn with Mvcc.Committed _ -> () | _ -> assert false);
  let restored = Mvcc.restore (Mvcc.serialize db) in
  Alcotest.(check (list (pair string string)))
    "restored state equals source"
    (Mvcc.committed_state db)
    (Mvcc.committed_state restored);
  check_int "one initial commit" 1 (Mvcc.commit_count restored)

let test_serialize_empty () =
  let db = Mvcc.create () in
  let restored = Mvcc.restore (Mvcc.serialize db) in
  Alcotest.(check (list (pair string string))) "empty state" []
    (Mvcc.committed_state restored)

let test_restore_garbage () =
  List.iter
    (fun garbage ->
      match Mvcc.restore garbage with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("restored garbage: " ^ garbage))
    [ "zzz"; "2;1:a"; "-1;"; "1;1:a999:x"; "0;extra" ]

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize/restore roundtrips committed state"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 0 8) gen_txn_writes))
    (fun txns ->
      let db = Mvcc.create () in
      List.iter
        (fun writes ->
          let t = Mvcc.begin_txn db in
          List.iter (fun (k, v) -> Mvcc.write db t k v) writes;
          ignore (Mvcc.commit db t))
        txns;
      Mvcc.committed_state (Mvcc.restore (Mvcc.serialize db))
      = Mvcc.committed_state db)

let test_wal_pp_entries () =
  let render e = Format.asprintf "%a" Wal.pp_entry e in
  Alcotest.(check string) "start" "start(T1)@5" (render (Wal.Start { txn = 1; ts = 5 }));
  Alcotest.(check string) "commit" "commit(T1)@9[2 updates]"
    (render
       (Wal.Commit
          {
            txn = 1;
            ts = 9;
            updates = [ { Wal.key = "x"; value = Some "1" }; { Wal.key = "y"; value = None } ];
          }));
  Alcotest.(check string) "empty commit" "commit(T2)@10[0 updates]"
    (render (Wal.Commit { txn = 2; ts = 10; updates = [] }));
  Alcotest.(check string) "abort" "abort(T1)[3 writes]"
    (render (Wal.Abort { txn = 1; writes = 3 }))

let test_row_pp () =
  let text = Format.asprintf "%a" Row.pp [ ("a", Row.Int 1); ("b", Row.Bool true) ] in
  Alcotest.(check string) "row rendering" "{a = 1; b = true}" text

(* --- Row codec ---------------------------------------------------------------------- *)

let sample_row =
  [
    ("id", Row.Int 42);
    ("title", Row.Text "lazy replication; with \"quotes\" and 12:34 colons");
    ("price", Row.Float 30.25);
    ("negative", Row.Float (-1.5e-3));
    ("available", Row.Bool true);
    ("sold_out", Row.Bool false);
    ("empty", Row.Text "");
  ]

let test_row_roundtrip () =
  check_bool "roundtrip equality" true
    (row_equal sample_row (Row.decode (Row.encode sample_row)))

let test_row_accessors () =
  check_int "int" 42 (Row.int_exn sample_row "id");
  Alcotest.(check (float 0.)) "float" 30.25 (Row.float_exn sample_row "price");
  check_bool "bool" true (Row.bool_exn sample_row "available");
  Alcotest.(check string) "text" "" (Row.text_exn sample_row "empty");
  check_bool "missing field" true (Row.find sample_row "nope" = None)

let test_row_accessor_type_errors () =
  Alcotest.check_raises "wrong type" Not_found (fun () ->
      ignore (Row.int_exn sample_row "title"))

let test_row_set () =
  let row = Row.set sample_row "id" (Row.Int 7) in
  check_int "replaced" 7 (Row.int_exn row "id");
  let row = Row.set row "new_field" (Row.Text "x") in
  Alcotest.(check string) "added" "x" (Row.text_exn row "new_field")

let test_row_decode_garbage () =
  List.iter
    (fun garbage ->
      match Row.decode garbage with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("decoded garbage: " ^ garbage))
    [ "zzz"; "2;i1:x"; "1;q1:a1:b"; "-1;"; "1;i2:ab3:xyz"; "0;trailing" ]

let row_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        map (fun i -> Row.Int i) int;
        map (fun f -> Row.Float f) (float_bound_inclusive 1e6);
        map (fun s -> Row.Text s) (string_size (int_range 0 20));
        map (fun b -> Row.Bool b) bool;
      ]
  in
  list_size (int_range 0 8)
    (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) scalar)

let prop_row_roundtrip =
  QCheck.Test.make ~name:"row codec roundtrips" ~count:500 (QCheck.make row_gen)
    (fun row -> row_equal row (Row.decode (Row.encode row)))

(* --- Table -------------------------------------------------------------------------- *)

let book title price = [ ("title", Row.Text title); ("price", Row.Float price) ]

let test_table_crud () =
  let db = Mvcc.create () in
  let books = Table.define db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (book "sicp" 30.);
  Table.insert books t1 ~pk:"2" (book "taocp" 90.);
  ignore (commit_exn db t1);
  let t2 = Mvcc.begin_txn db in
  (match Table.get books t2 ~pk:"1" with
  | Some row -> Alcotest.(check string) "get" "sicp" (Row.text_exn row "title")
  | None -> Alcotest.fail "row missing");
  check_bool "update existing" true
    (Table.update books t2 ~pk:"2" (fun row ->
         Row.set row "price" (Row.Float 80.)));
  check_bool "update missing" false (Table.update books t2 ~pk:"99" Fun.id);
  Table.delete books t2 ~pk:"1";
  ignore (commit_exn db t2);
  let t3 = Mvcc.begin_txn db in
  check_bool "deleted" true (Table.get books t3 ~pk:"1" = None);
  Alcotest.(check (float 0.))
    "updated price" 80.
    (Row.float_exn (Option.get (Table.get books t3 ~pk:"2")) "price")

let test_table_scan_snapshot () =
  let db = Mvcc.create () in
  let books = Table.define db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (book "a" 10.);
  Table.insert books t1 ~pk:"2" (book "b" 20.);
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  (* A later insert must stay invisible to the running scan (no phantom
     within the snapshot). *)
  let t2 = Mvcc.begin_txn db in
  Table.insert books t2 ~pk:"3" (book "c" 30.);
  ignore (commit_exn db t2);
  let rows = Table.scan books reader ~where:(fun _ -> true) in
  check_int "scan sees snapshot only" 2 (List.length rows);
  let cheap =
    Table.scan books reader ~where:(fun r -> Row.float_exn r "price" < 15.)
  in
  check_int "predicate scan" 1 (List.length cheap)

let test_table_scan_sees_own_inserts () =
  let db = Mvcc.create () in
  let books = Table.define db ~name:"books" in
  let txn = Mvcc.begin_txn db in
  Table.insert books txn ~pk:"1" (book "mine" 5.);
  let rows = Table.scan books txn ~where:(fun _ -> true) in
  check_int "own insert in scan" 1 (List.length rows)

let test_table_isolation_between_tables () =
  let db = Mvcc.create () in
  let books = Table.define db ~name:"books" in
  let orders = Table.define db ~name:"orders" in
  let txn = Mvcc.begin_txn db in
  Table.insert books txn ~pk:"1" (book "a" 1.);
  Table.insert orders txn ~pk:"1" [ ("qty", Row.Int 2) ];
  ignore (commit_exn db txn);
  let reader = Mvcc.begin_txn db in
  check_int "books scan" 1
    (List.length (Table.scan books reader ~where:(fun _ -> true)));
  check_int "orders scan" 1
    (List.length (Table.scan orders reader ~where:(fun _ -> true)))

(* --- Secondary indexes ------------------------------------------------------------------ *)

let priced title price =
  [ ("title", Row.Text title); ("price", Row.Int price) ]

let test_index_lookup_basic () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (priced "a" 10);
  Table.insert books t1 ~pk:"2" (priced "b" 20);
  Table.insert books t1 ~pk:"3" (priced "c" 10);
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  let cheap = Table.lookup books reader ~field:"price" ~value:(Row.Int 10) in
  Alcotest.(check (list string)) "index finds both" [ "1"; "3" ]
    (List.map fst cheap);
  check_int "single match" 1
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 20)));
  check_int "no match" 0
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 99)))

let test_index_follows_updates () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (priced "a" 10);
  ignore (commit_exn db t1);
  let t2 = Mvcc.begin_txn db in
  ignore (Table.update books t2 ~pk:"1" (fun row -> Row.set row "price" (Row.Int 25)));
  ignore (commit_exn db t2);
  let reader = Mvcc.begin_txn db in
  check_int "old entry gone" 0
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 10)));
  check_int "new entry present" 1
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 25)))

let test_index_follows_deletes () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (priced "a" 10);
  ignore (commit_exn db t1);
  let t2 = Mvcc.begin_txn db in
  Table.delete books t2 ~pk:"1";
  ignore (commit_exn db t2);
  let reader = Mvcc.begin_txn db in
  check_int "entry removed with row" 0
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 10)))

let test_index_snapshot_isolation () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let t1 = Mvcc.begin_txn db in
  Table.insert books t1 ~pk:"1" (priced "a" 10);
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  (* Concurrent re-pricing is invisible to the running snapshot. *)
  let t2 = Mvcc.begin_txn db in
  ignore (Table.update books t2 ~pk:"1" (fun row -> Row.set row "price" (Row.Int 99)));
  ignore (commit_exn db t2);
  check_int "reader still finds the old price" 1
    (List.length (Table.lookup books reader ~field:"price" ~value:(Row.Int 10)));
  let fresh = Mvcc.begin_txn db in
  check_int "fresh snapshot sees new price" 1
    (List.length (Table.lookup books fresh ~field:"price" ~value:(Row.Int 99)))

let test_index_sees_own_writes () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let txn = Mvcc.begin_txn db in
  Table.insert books txn ~pk:"1" (priced "a" 10);
  check_int "own insert visible in lookup" 1
    (List.length (Table.lookup books txn ~field:"price" ~value:(Row.Int 10)))

let test_index_unindexed_field_rejected () =
  let db = Mvcc.create () in
  let books = Table.define ~indexes:[ "price" ] db ~name:"books" in
  let txn = Mvcc.begin_txn db in
  Alcotest.check_raises "missing index"
    (Invalid_argument "Table.lookup: no index on books.title") (fun () ->
      ignore (Table.lookup books txn ~field:"title" ~value:(Row.Text "a")))

let test_index_key_injective_with_delimiters () =
  let db = Mvcc.create () in
  let tbl = Table.define ~indexes:[ "tag" ] db ~name:"notes" in
  let t1 = Mvcc.begin_txn db in
  Table.insert tbl t1 ~pk:"1" [ ("tag", Row.Text "a:b|c") ];
  Table.insert tbl t1 ~pk:"2" [ ("tag", Row.Text "a") ];
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  Alcotest.(check (list string)) "tricky value isolated" [ "1" ]
    (List.map fst (Table.lookup tbl reader ~field:"tag" ~value:(Row.Text "a:b|c")));
  Alcotest.(check (list string)) "plain value isolated" [ "2" ]
    (List.map fst (Table.lookup tbl reader ~field:"tag" ~value:(Row.Text "a")))

(* Pinned repro (PR 6): stored Int, probed Float (and vice versa). SQL
   numeric equality is cross-type, so the index path must agree with a
   predicate scan using Row.scalar_compare — the old encoded-key
   verification silently dropped the other representation. *)
let test_index_cross_type_numeric () =
  let db = Mvcc.create () in
  let tbl = Table.define ~indexes:[ "v" ] db ~name:"t" in
  let t1 = Mvcc.begin_txn db in
  Table.insert tbl t1 ~pk:"i" [ ("v", Row.Int 7) ];
  Table.insert tbl t1 ~pk:"f" [ ("v", Row.Float 7.0) ];
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  Alcotest.(check (list string))
    "Int probe finds both representations" [ "f"; "i" ]
    (List.map fst (Table.lookup tbl reader ~field:"v" ~value:(Row.Int 7)));
  Alcotest.(check (list string))
    "Float probe finds both representations" [ "f"; "i" ]
    (List.map fst (Table.lookup tbl reader ~field:"v" ~value:(Row.Float 7.0)))

let test_order_key_agrees_with_compare () =
  (* The order-preserving encoding must sort exactly like scalar_compare
     wherever the latter is defined, including the nasty floats and the
     delimiter bytes in text. *)
  let scalars =
    [
      Row.Int (-5); Row.Int 0; Row.Int 7; Row.Float (-12.5); Row.Float (-0.0);
      Row.Float 0.0; Row.Float 0.25; Row.Float 7.0; Row.Float 1e300;
      Row.Text ""; Row.Text "a"; Row.Text "a\x00b"; Row.Text "a\x01b";
      Row.Text "ab"; Row.Bool false; Row.Bool true;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match Row.scalar_compare a b with
          | None -> ()
          | Some c ->
            let ka = Row.order_key a and kb = Row.order_key b in
            check_int
              (Format.asprintf "order_key(%a) vs order_key(%a)" Row.pp_scalar a
                 Row.pp_scalar b)
              (compare c 0)
              (compare (String.compare ka kb) 0))
        scalars)
    scalars

let range_pks tbl reader ~lo ~hi =
  List.map fst (Table.range_lookup tbl reader ~field:"v" ~lo ~hi)

let test_range_lookup_semantics () =
  let db = Mvcc.create () in
  let tbl = Table.define ~indexes:[ "v" ] db ~name:"t" in
  let t1 = Mvcc.begin_txn db in
  Table.insert tbl t1 ~pk:"a" [ ("v", Row.Int 1) ];
  Table.insert tbl t1 ~pk:"b" [ ("v", Row.Float 2.5) ];
  Table.insert tbl t1 ~pk:"c" [ ("v", Row.Int 4) ];
  Table.insert tbl t1 ~pk:"d" [ ("v", Row.Text "x") ];
  Table.insert tbl t1 ~pk:"e" [ ("v", Row.Bool true) ];
  Table.insert tbl t1 ~pk:"f" [] (* no v at all *);
  ignore (commit_exn db t1);
  let reader = Mvcc.begin_txn db in
  Alcotest.(check (list string))
    "closed numeric interval, cross-type endpoints" [ "b"; "c" ]
    (range_pks tbl reader
       ~lo:(Some (Row.Float 2.0, true))
       ~hi:(Some (Row.Int 4, true)));
  Alcotest.(check (list string))
    "exclusive bounds drop the endpoints" [ "b" ]
    (range_pks tbl reader
       ~lo:(Some (Row.Int 1, false))
       ~hi:(Some (Row.Int 4, false)));
  Alcotest.(check (list string))
    "unbounded below stays within the numeric type band" [ "a"; "b" ]
    (range_pks tbl reader ~lo:None ~hi:(Some (Row.Float 2.5, true)));
  Alcotest.(check (list string))
    "unbounded above" [ "c" ]
    (range_pks tbl reader ~lo:(Some (Row.Int 3, true)) ~hi:None);
  Alcotest.(check (list string))
    "text range never matches numerics or bools" [ "d" ]
    (range_pks tbl reader ~lo:(Some (Row.Text "a", true)) ~hi:None);
  Alcotest.(check (list string))
    "empty interval" []
    (range_pks tbl reader
       ~lo:(Some (Row.Int 10, true))
       ~hi:(Some (Row.Int 4, true)))

let test_range_lookup_sees_own_writes () =
  let db = Mvcc.create () in
  let tbl = Table.define ~indexes:[ "v" ] db ~name:"t" in
  let t1 = Mvcc.begin_txn db in
  Table.insert tbl t1 ~pk:"committed" [ ("v", Row.Int 5) ];
  ignore (commit_exn db t1);
  let t2 = Mvcc.begin_txn db in
  Table.insert tbl t2 ~pk:"pending" [ ("v", Row.Int 6) ];
  Alcotest.(check (list string))
    "pending write visible in own range" [ "committed"; "pending" ]
    (range_pks tbl t2 ~lo:(Some (Row.Int 0, true)) ~hi:(Some (Row.Int 10, true)))

(* Budgeted-ops guard (PR 6): fold_keys / keys_from are seek-based, so
   enumerating a small prefix band of a large committed keyspace must not
   scan the whole table. A linear fold would visit ~10^9 keys here (10k
   folds x 100k keys); the budget is generous enough to never flake on a
   slow machine while still catching any O(n)-per-fold regression. *)
let test_prefix_seek_budget () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  for i = 0 to 99_999 do
    Mvcc.write db txn (Printf.sprintf "bulk:%06d" i) (Some "v")
  done;
  for i = 0 to 9 do
    Mvcc.write db txn (Printf.sprintf "needle:%d" i) (Some "v")
  done;
  ignore (commit_exn db txn);
  let t0 = Sys.time () in
  let found = ref 0 in
  for _ = 1 to 10_000 do
    found :=
      Mvcc.fold_keys db ~prefix:"needle:" ~init:0 ~f:(fun acc _ -> acc + 1)
  done;
  let elapsed = Sys.time () -. t0 in
  check_int "prefix band enumerated" 10 !found;
  check_bool
    (Printf.sprintf "10k prefix folds over 100k keys in %.2fs cpu (budget 10s)"
       elapsed)
    true (elapsed < 10.)

(* Budgeted-ops guard (PR 6): reads at recent snapshots must stay O(1) in
   the length of a hot key's version chain. *)
let test_version_chain_read_budget () =
  let db = Mvcc.create () in
  for i = 1 to 50_000 do
    let txn = Mvcc.begin_txn db in
    Mvcc.write db txn "hot" (Some (string_of_int i));
    ignore (Mvcc.commit db txn)
  done;
  let t0 = Sys.time () in
  for _ = 1 to 100_000 do
    let txn = Mvcc.begin_txn db in
    (match Mvcc.read db txn "hot" with
    | Some _ -> ()
    | None -> Alcotest.fail "hot key vanished");
    Mvcc.end_read db txn
  done;
  let elapsed = Sys.time () -. t0 in
  check_bool
    (Printf.sprintf
       "100k snapshot reads of a 50k-version chain in %.2fs cpu (budget 10s)"
       elapsed)
    true (elapsed < 10.)

(* Lookup always agrees with a full predicate scan. *)
let prop_index_agrees_with_scan =
  let gen =
    QCheck.Gen.(list_size (int_range 0 20) (pair (int_range 0 5) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"index lookup = predicate scan" ~count:200
    (QCheck.make gen) (fun ops ->
      let db = Mvcc.create () in
      let tbl = Table.define ~indexes:[ "grp" ] db ~name:"t" in
      List.iter
        (fun (pk, grp) ->
          let txn = Mvcc.begin_txn db in
          if grp = 3 then Table.delete tbl txn ~pk:(string_of_int pk)
          else
            Table.insert tbl txn ~pk:(string_of_int pk)
              [ ("grp", Row.Int grp) ];
          ignore (Mvcc.commit db txn))
        ops;
      let reader = Mvcc.begin_txn db in
      List.for_all
        (fun grp ->
          let via_index =
            Table.lookup tbl reader ~field:"grp" ~value:(Row.Int grp)
          in
          let via_scan =
            Table.scan tbl reader ~where:(fun row ->
                Row.find row "grp" = Some (Row.Int grp))
          in
          via_index = via_scan)
        [ 0; 1; 2 ])

(* --- Suite ---------------------------------------------------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lsr_storage"
    [
      ( "timestamp",
        [ Alcotest.test_case "monotonic" `Quick test_timestamp_monotonic ] );
      ( "wal",
        [
          Alcotest.test_case "append/read" `Quick test_wal_append_read;
          Alcotest.test_case "entry bounds" `Quick test_wal_entry_bounds;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "read_from below truncation raises" `Quick
            test_wal_read_from_below_truncation_raises;
          Alcotest.test_case "read_from at length" `Quick
            test_wal_read_from_at_length;
          QCheck_alcotest.to_alcotest prop_wal_truncate_preserves_suffix;
          QCheck_alcotest.to_alcotest prop_squash_matches_sorting;
          Alcotest.test_case "pp entries" `Quick test_wal_pp_entries;
          Alcotest.test_case "row pp" `Quick test_row_pp;
        ] );
      ( "mvcc-semantics",
        [
          Alcotest.test_case "visibility of committed" `Quick
            test_visibility_committed_before_start;
          Alcotest.test_case "snapshot ignores later commits" `Quick
            test_snapshot_ignores_later_commit;
          Alcotest.test_case "read your writes" `Quick test_read_your_writes;
          Alcotest.test_case "delete tombstone" `Quick test_delete_tombstone;
          Alcotest.test_case "first committer wins" `Quick
            test_first_committer_wins;
          Alcotest.test_case "sequential overwrite ok" `Quick
            test_sequential_overwrite_allowed;
          Alcotest.test_case "disjoint concurrent commits" `Quick
            test_disjoint_concurrent_commits;
          Alcotest.test_case "write skew possible (P5)" `Quick
            test_write_skew_possible;
          Alcotest.test_case "lost update prevented (P4)" `Quick
            test_lost_update_prevented;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "ops after end raise" `Quick
            test_operations_after_end_raise;
          Alcotest.test_case "end_read rejects writers" `Quick
            test_end_read_rejects_writers;
          Alcotest.test_case "end_read creates no state" `Quick
            test_end_read_creates_no_state;
          Alcotest.test_case "last write wins in txn" `Quick
            test_last_write_wins_within_txn;
          Alcotest.test_case "pending writes, distinct keys" `Quick
            test_pending_writes_distinct_keys;
          Alcotest.test_case "pending writes, repeated keys" `Quick
            test_pending_writes_repeated_keys;
          Alcotest.test_case "write_all reads own writes" `Quick
            test_write_all_reads_own_writes;
        ] );
      ( "mvcc-states",
        [
          Alcotest.test_case "state sequence S^i" `Quick test_state_sequence;
          Alcotest.test_case "read_at" `Quick test_read_at;
          Alcotest.test_case "commit history ordered" `Quick
            test_commit_history_ordered;
          Alcotest.test_case "fold_keys prefix" `Quick test_fold_keys_prefix;
          Alcotest.test_case "wal records txn" `Quick test_wal_records_transaction;
          Alcotest.test_case "wal records abort" `Quick test_wal_records_abort;
          Alcotest.test_case "unlogged store appends nothing" `Quick
            test_unlogged_store;
          Alcotest.test_case "commit list only when kept" `Quick
            test_commit_list_only_when_kept;
        ]
        @ qsuite
            [
              prop_fcw_exclusive;
              prop_snapshot_stability;
              prop_state_replay;
              prop_fold_visible_matches_state_at;
              prop_key_index_lazy;
            ] );
      ( "time-travel",
        [
          Alcotest.test_case "reads history" `Quick test_time_travel_reads_history;
          Alcotest.test_case "snapshot zero" `Quick test_time_travel_snapshot_zero;
          Alcotest.test_case "future rejected" `Quick
            test_time_travel_future_rejected;
          Alcotest.test_case "generalized-SI write conflicts" `Quick
            test_time_travel_write_conflicts;
        ] );
      ( "mvcc-maintenance",
        [
          Alcotest.test_case "vacuum reclaims" `Quick
            test_vacuum_reclaims_old_versions;
          Alcotest.test_case "vacuum preserves recent" `Quick
            test_vacuum_preserves_recent_snapshots;
          Alcotest.test_case "vacuum noop" `Quick test_vacuum_noop_when_single_version;
          Alcotest.test_case "idle vacuum allocates nothing" `Quick
            test_vacuum_idle_allocates_nothing;
          Alcotest.test_case "present-key reads allocate nothing" `Quick
            test_present_key_reads_allocate_nothing;
          Alcotest.test_case "unscanned store footprint" `Quick
            test_unscanned_store_footprint;
          Alcotest.test_case "serialize/restore roundtrip" `Quick
            test_serialize_restore_roundtrip;
          Alcotest.test_case "serialize empty" `Quick test_serialize_empty;
          Alcotest.test_case "restore garbage" `Quick test_restore_garbage;
        ]
        @ qsuite
            [
              prop_serialize_roundtrip;
              prop_vacuum_matches_full_scan;
              prop_index_matches_map_model;
            ] );
      ( "row",
        [
          Alcotest.test_case "roundtrip" `Quick test_row_roundtrip;
          Alcotest.test_case "accessors" `Quick test_row_accessors;
          Alcotest.test_case "accessor type errors" `Quick
            test_row_accessor_type_errors;
          Alcotest.test_case "set" `Quick test_row_set;
          Alcotest.test_case "decode garbage" `Quick test_row_decode_garbage;
        ]
        @ qsuite [ prop_row_roundtrip ] );
      ( "index",
        [
          Alcotest.test_case "lookup basic" `Quick test_index_lookup_basic;
          Alcotest.test_case "follows updates" `Quick test_index_follows_updates;
          Alcotest.test_case "follows deletes" `Quick test_index_follows_deletes;
          Alcotest.test_case "snapshot isolation" `Quick
            test_index_snapshot_isolation;
          Alcotest.test_case "sees own writes" `Quick test_index_sees_own_writes;
          Alcotest.test_case "unindexed field rejected" `Quick
            test_index_unindexed_field_rejected;
          Alcotest.test_case "delimiter injectivity" `Quick
            test_index_key_injective_with_delimiters;
          Alcotest.test_case "cross-type numeric equality" `Quick
            test_index_cross_type_numeric;
          Alcotest.test_case "order_key agrees with scalar_compare" `Quick
            test_order_key_agrees_with_compare;
          Alcotest.test_case "range_lookup semantics" `Quick
            test_range_lookup_semantics;
          Alcotest.test_case "range_lookup sees own writes" `Quick
            test_range_lookup_sees_own_writes;
        ]
        @ qsuite [ prop_index_agrees_with_scan ] );
      ( "budget",
        [
          Alcotest.test_case "prefix seek over 100k keys" `Slow
            test_prefix_seek_budget;
          Alcotest.test_case "50k-version chain reads" `Slow
            test_version_chain_read_budget;
        ] );
      ( "table",
        [
          Alcotest.test_case "crud" `Quick test_table_crud;
          Alcotest.test_case "scan snapshot (no phantoms)" `Quick
            test_table_scan_snapshot;
          Alcotest.test_case "scan sees own inserts" `Quick
            test_table_scan_sees_own_inserts;
          Alcotest.test_case "table isolation" `Quick
            test_table_isolation_between_tables;
        ] );
    ]
