(* Helpers shared by the test executables: read-buffer conversions, a
   hand-built record appended to a history, a handle that keeps its reads,
   one update run straight at a primary, the open-start scan of a primary
   log, a watchdog verdict read against a guarantee and its alerts' witness
   pairs, and the hand-built histories of the serialization-graph tests
   (serializability_cases, test_checker_diff): the write-skew and serial
   executions of the sign-off templates whose static verdict test_analysis
   checks. *)

open Lsr_storage
open Lsr_core

(* A record's [(read_keys, read_values)] from (key, observed value) pairs,
   oldest first. *)
let reads_of_list reads =
  (Array.of_list (List.map fst reads), Array.of_list (List.map snd reads))

(* A record's reads as (key, observed value) pairs, oldest first. *)
let read_list (t : History.txn) =
  List.combine (Array.to_list t.read_keys) (Array.to_list t.read_values)

(* (key, observed value) pairs, oldest first, as the buffer the watchdog's
   end hooks judge. *)
let served_of_list reads =
  let r = History.reads () in
  List.iter (fun (key, value) -> History.serve r key value) reads;
  r

(* The first [count] reads of a buffer as (key, observed value) pairs,
   oldest first. *)
let served_list (r : History.reads) =
  List.init r.count (fun i -> (r.keys.(i), r.values.(i)))

(* Appends a hand-built record to [h], its reads through a buffer over the
   record's own arrays. *)
let add h (x : History.txn) =
  let commit =
    match (x.kind, x.commit_ts) with
    | History.Read_only, _ -> History.read_only
    | History.Update, ts -> Option.value ts ~default:History.aborted
  in
  History.add h ~key:Fun.id ~id:x.id ~session:x.session ~site:x.site
    ~first_op:x.first_op ~finished:x.finished ~snapshot:x.snapshot ~commit
    ~writes:x.writes ~fence:x.fence
    { History.count = Array.length x.read_keys; keys = x.read_keys;
      values = x.read_values }

(* A handle on [txn] that keeps every read it serves in its buffer
   ([Handle.reads]). *)
let handle ?(schema = []) db txn =
  Handle.make ~schema ~tracked:true ~read_only:false (History.reads ()) db txn

(* A primary's store: the one kind made with a log. *)
let primary () = Mvcc.create ~log:(Wal.create ()) ()

(* Run [body primary txn] as one update at [primary] and return its commit
   timestamp. *)
let primary_update primary body =
  let txn = Mvcc.begin_txn primary in
  body primary txn;
  match Mvcc.commit primary txn with
  | Mvcc.Committed commit_ts -> commit_ts
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected primary abort"

(* The transactions whose start record [wal] holds with no commit or abort
   record after it. *)
let open_starts wal =
  let starts = Hashtbl.create 8 in
  for i = 0 to Wal.length wal - 1 do
    match Wal.entry wal i with
    | Wal.Start { txn; _ } -> Hashtbl.replace starts txn ()
    | Wal.Commit { txn; _ } | Wal.Abort { txn; _ } -> Hashtbl.remove starts txn
  done;
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys starts))

(* [wal]'s commit records, oldest first, read off the untruncated log: each
   one's timestamp, the list the commit installed and the digest after
   it. *)
let logged_commits wal =
  List.filter_map
    (function
      | Wal.Commit { ts; updates; digest; _ } -> Some (ts, updates, digest)
      | Wal.Start _ | Wal.Abort _ -> None)
    (fst (Wal.read_from wal 0))

(* Whether a watchdog verdict meets [guarantee]: no read mismatch, no fence
   failure, and no inversion at the level the guarantee forbids. *)
let satisfies guarantee (v : Watchdog.verdict) =
  v.read_mismatches = 0 && v.fence_failures = 0
  &&
  match Session.forbidden_level guarantee with
  | None -> true
  | Some Session.All_sessions -> v.v_inversions_all = 0
  | Some Session.In_session -> v.v_inversions_in_session = 0
  | Some Session.After_update -> v.v_inversions_after_update = 0

(* The verdict of [h] replayed into a watchdog promising [guarantee]. *)
let audit ?clock ?(guarantee = Session.Weak) h =
  Watchdog.verdict (Watchdog.replay ?clock ~guarantee h)

(* The (txn id, detail) of retained fence alerts, sorted. *)
let fence_alerts alerts =
  List.filter_map
    (fun (a : Watchdog.alert) ->
      match a.kind with
      | Watchdog.Fence_violation { detail } -> Some (a.txn, detail)
      | Watchdog.Read_mismatch _ | Watchdog.Inversion _ -> None)
    alerts
  |> List.sort compare

(* The inversion witness pairs (earlier id, later id) of retained alerts,
   sorted. *)
let alert_pairs (alerts : Watchdog.alert list) =
  List.filter_map
    (fun (a : Watchdog.alert) ->
      match a.kind with
      | Watchdog.Inversion { earlier; _ } -> Some (earlier, a.txn)
      | Watchdog.Read_mismatch _ | Watchdog.Fence_violation _ -> None)
    alerts
  |> List.sort compare

let commit_exn db txn =
  match Mvcc.commit db txn with
  | Mvcc.Committed cts -> cts
  | Mvcc.Aborted _ -> Alcotest.fail "unexpected abort in fixture"

(* Record one serially-executed committed update. *)
let record_serial h db ~session ~template ~reads ~writes =
  let first_op = History.tick h in
  let snapshot = Mvcc.latest_commit_ts db in
  let txn = Mvcc.begin_txn db in
  let observed = List.map (fun k -> (k, Mvcc.read db txn k)) reads in
  List.iter (fun (k, v) -> Mvcc.write db txn k (Some v)) writes;
  let pending = Mvcc.pending_writes txn in
  let cts = commit_exn db txn in
  let id = History.fresh_id h in
  let read_keys, read_values = reads_of_list observed in
  add h
    {
      History.id = id;
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
    };
  (id, template)

(* The classic SI write-skew execution: both transactions read {x, y} from
   the same snapshot, one signs off x, the other y, both commit (their write
   sets are disjoint, so first-committer-wins lets both through). The MVSG
   has the rw-rw cycle. Returns the history and the id -> template-name map
   aligning it with the analyzer's [write_skew] workload. *)
let write_skew_history () =
  let h = History.create () in
  let db = Mvcc.create () in
  let init =
    record_serial h db ~session:"init" ~template:"init" ~reads:[]
      ~writes:[ ("x", "on"); ("y", "on") ]
  in
  let first1 = History.tick h in
  let first2 = History.tick h in
  let snapshot = Mvcc.latest_commit_ts db in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  let r1 = [ ("x", Mvcc.read db t1 "x"); ("y", Mvcc.read db t1 "y") ] in
  let r2 = [ ("x", Mvcc.read db t2 "x"); ("y", Mvcc.read db t2 "y") ] in
  Mvcc.write db t1 "x" (Some "off");
  Mvcc.write db t2 "y" (Some "off");
  let w1 = Mvcc.pending_writes t1 and w2 = Mvcc.pending_writes t2 in
  let c1 = commit_exn db t1 in
  let c2 = commit_exn db t2 in
  let add ~session ~first_op ~cts ~reads ~writes =
    let id = History.fresh_id h in
    let read_keys, read_values = reads_of_list reads in
    add h
      {
        History.id = id;
        session;
        kind = History.Update;
        site = "primary";
        first_op;
        finished = History.tick h;
        snapshot;
        commit_ts = Some cts;
        read_keys;
        read_values;
        writes;
        fence = None;
      };
    id
  in
  let id1 = add ~session:"s1" ~first_op:first1 ~cts:c1 ~reads:r1 ~writes:w1 in
  let id2 = add ~session:"s2" ~first_op:first2 ~cts:c2 ~reads:r2 ~writes:w2 in
  ( h,
    [ init; (id1, "check_then_sign_off_x"); (id2, "check_then_sign_off_y") ] )

(* The same operations executed serially: every snapshot is current, the
   MVSG is acyclic. *)
let serial_history () =
  let h = History.create () in
  let db = Mvcc.create () in
  let init =
    record_serial h db ~session:"init" ~template:"init" ~reads:[]
      ~writes:[ ("x", "on"); ("y", "on") ]
  in
  let t1 =
    record_serial h db ~session:"s1" ~template:"check_then_sign_off_x"
      ~reads:[ "x"; "y" ] ~writes:[ ("x", "off") ]
  in
  let t2 =
    record_serial h db ~session:"s2" ~template:"check_then_sign_off_y"
      ~reads:[ "x"; "y" ] ~writes:[ ("y", "off") ]
  in
  (h, [ init; t1; t2 ])
