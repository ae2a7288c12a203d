open Lsr_storage
module Txns = Hashtbl.Make (Int)

exception Refresh_conflict of { txn : int; key : string }
exception Commit_without_start of { txn : int }

type applicator = {
  primary_txn : int;
  commit_ts : Timestamp.t;
  refresh : Mvcc.txn;  (* holds the shipped updates, buffered since dispatch *)
  mutable committed : bool;
}

type t = {
  name : string;
  db : Mvcc.t;
  update_queue : Txn_record.t Queue.t;
  (* Primary txn id -> open refresh transaction (started, not yet dispatched
     to an applicator). *)
  refresh_txns : Mvcc.txn Txns.t;
  (* The pending queue: dispatched, not yet committed, in dispatch order,
     which is primary commit order. Only the front may commit, so a queue
     keeps dispatch O(1) where a list append made long refresh backlogs
     O(n²). *)
  applicators : applicator Queue.t;
  mutable seq_dbsec : Timestamp.t;
  on_refresh_commit : Timestamp.t -> unit;
  (* Observability (no-ops unless an enabled registry is supplied). *)
  sinks : Lsr_obs.Sinks.t;
  c_started : Lsr_obs.Obs.counter;
  c_aborted : Lsr_obs.Obs.counter;
  g_update_queue : Lsr_obs.Obs.gauge;
  g_pending : Lsr_obs.Obs.gauge;
}

type refresher_outcome =
  | Started of int
  | Dispatched of applicator
  | Aborted of int
  | Blocked_on_pending
  | Idle

let create ?(name = "secondary") ?(sinks = Lsr_obs.Sinks.null)
    ?(on_refresh_commit = fun _ -> ()) ?(db = Mvcc.create ()) () =
  let module Obs = Lsr_obs.Obs in
  let obs = sinks.Lsr_obs.Sinks.obs in
  let inst fmt suffix = Printf.sprintf fmt name suffix in
  {
    name;
    db;
    update_queue = Queue.create ();
    refresh_txns = Txns.create 32;
    applicators = Queue.create ();
    seq_dbsec = Timestamp.zero;
    on_refresh_commit;
    sinks;
    c_started = Obs.counter obs (inst "%s.refresh_%s" "started");
    c_aborted = Obs.counter obs (inst "%s.refresh_%s" "aborted");
    g_update_queue = Obs.gauge obs (inst "%s.%s" "update_queue_depth");
    g_pending = Obs.gauge obs (inst "%s.%s" "pending_depth");
  }

let db t = t.db
let name t = t.name

let note_update_queue t =
  Lsr_obs.Obs.set_gauge t.g_update_queue
    (float_of_int (Queue.length t.update_queue))

let enqueue t record =
  Queue.add record t.update_queue;
  (if Lsr_obs.Sinks.tracing t.sinks then
     match record with
     | Txn_record.Commit_rec { txn; _ } ->
       Lsr_obs.Sinks.stage t.sinks ~site:t.name ~txn Lsr_obs.Flight.Enqueued
     | Txn_record.Start_rec _ | Txn_record.Abort_rec _ -> ());
  note_update_queue t

let seq_dbsec t = t.seq_dbsec
let reseed_seq t ts = t.seq_dbsec <- ts

let note_pending t =
  Lsr_obs.Obs.set_gauge t.g_pending (float_of_int (Queue.length t.applicators))

let pop_update t =
  ignore (Queue.pop t.update_queue);
  note_update_queue t

let refresher_step t =
  match Queue.peek_opt t.update_queue with
  | None -> Idle
  | Some (Txn_record.Start_rec { txn; _ }) ->
    if not (Queue.is_empty t.applicators) then Blocked_on_pending
    else begin
      pop_update t;
      let refresh = Mvcc.begin_txn t.db in
      Txns.replace t.refresh_txns txn refresh;
      if Lsr_obs.Sinks.tracing t.sinks then
        Lsr_obs.Sinks.stage t.sinks ~site:t.name ~txn
          Lsr_obs.Flight.Refresh_started;
      Lsr_obs.Obs.incr t.c_started;
      Started txn
    end
  | Some (Txn_record.Commit_rec { txn; commit_ts; updates }) ->
    pop_update t;
    let refresh =
      match Txns.find_opt t.refresh_txns txn with
      | Some r -> r
      | None -> raise (Commit_without_start { txn })
    in
    Txns.remove t.refresh_txns txn;
    (* Handed over whole to the uncommitted refresh txn, so nobody sees them
       before the commit, which installs and keeps this very list. *)
    Mvcc.write_all t.db refresh updates;
    let app = { primary_txn = txn; commit_ts; refresh; committed = false } in
    Queue.add app t.applicators;
    note_pending t;
    Dispatched app
  | Some (Txn_record.Abort_rec { txn; wasted = _ }) ->
    pop_update t;
    (match Txns.find_opt t.refresh_txns txn with
    | Some refresh ->
      Txns.remove t.refresh_txns txn;
      Mvcc.abort t.db refresh
    | None -> ());
    Lsr_obs.Obs.incr t.c_aborted;
    Aborted txn

type applicator_outcome = Waiting_commit | Committed of Timestamp.t | Done

let applicator_step t app =
  if app.committed then Done
  else
    match Queue.peek_opt t.applicators with
    | Some head when head == app -> (
      match Mvcc.commit t.db app.refresh with
      | Mvcc.Committed _local_ts ->
        ignore (Queue.pop t.applicators);
        note_pending t;
        app.committed <- true;
        t.seq_dbsec <- app.commit_ts;
        if Lsr_obs.Sinks.tracing t.sinks then
          Lsr_obs.Sinks.stage t.sinks ~site:t.name ~txn:app.primary_txn
            (Lsr_obs.Flight.Refresh_committed { commit_ts = app.commit_ts });
        t.on_refresh_commit app.commit_ts;
        Committed app.commit_ts
      | Mvcc.Aborted (Mvcc.Write_conflict key) ->
        raise (Refresh_conflict { txn = app.primary_txn; key })
      | Mvcc.Aborted Mvcc.Forced ->
        raise (Refresh_conflict { txn = app.primary_txn; key = "<forced>" }))
    | Some _ | None -> Waiting_commit

let applicator_commit_ts app = app.commit_ts
let applicator_local_start app = Mvcc.start_ts app.refresh
let active_applicators t = List.of_seq (Queue.to_seq t.applicators)

(* Run the refresher until it blocks on the pending queue, then commit the
   whole queue (its head can always commit); stop once it is idle. *)
let drain t =
  let rec commit_all committed =
    match Queue.peek_opt t.applicators with
    | None -> committed
    | Some app -> (
      match applicator_step t app with
      | Committed _ -> commit_all (committed + 1)
      | Waiting_commit | Done -> assert false (* the head commits or raises *))
  in
  let rec loop committed =
    match refresher_step t with
    | Started _ | Dispatched _ | Aborted _ -> loop committed
    | Blocked_on_pending -> loop (commit_all committed)
    | Idle -> commit_all committed
  in
  loop 0

let update_queue_length t = Queue.length t.update_queue
let pending_queue_length t = Queue.length t.applicators
let peek_update t = Queue.peek_opt t.update_queue
