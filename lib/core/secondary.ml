open Lsr_storage
module Txns = Hashtbl.Make (Int)

exception Refresh_conflict of { txn : int; key : string }
exception Commit_without_start of { txn : int }

type applicator = {
  primary_txn : int;
  commit_ts : Timestamp.t;
  refresh : Mvcc.txn;  (* holds the shipped updates, buffered since dispatch *)
}

type t = {
  name : string;
  db : Mvcc.t;
  update_queue : Wal.entry Queue.t;
  (* Primary txn id -> open refresh transaction (started, not yet dispatched
     to an applicator). *)
  refresh_txns : Mvcc.txn Txns.t;
  (* The pending queue: dispatched, not yet committed, in dispatch order,
     which is primary commit order. Only the front may commit, so a queue
     keeps dispatch O(1) where a list append made long refresh backlogs
     O(n²). *)
  applicators : applicator Queue.t;
  (* Commit ts of the last applicator dispatched: the pending queue's tail
     while it is not empty. *)
  mutable tail : Timestamp.t;
  mutable seq_dbsec : Timestamp.t;
  (* Primary txns below this id started before this site was recovered. *)
  resumed_at : int;
  on_refresh_commit : Timestamp.t -> unit;
  (* Observability (no-ops unless an enabled registry is supplied). *)
  sinks : Lsr_obs.Sinks.t;
  site : int;  (* this site's recorder id *)
  c_started : Lsr_obs.Obs.counter;
  c_aborted : Lsr_obs.Obs.counter;
  g_update_queue : Lsr_obs.Obs.gauge;
  g_pending : Lsr_obs.Obs.gauge;
}

type refresher_outcome =
  | Started of int
  | Dispatched of int
  | Aborted of int
  | Blocked_on_pending
  | Idle

let create ?(name = "secondary") ?(sinks = Lsr_obs.Sinks.null)
    ?(on_refresh_commit = fun _ -> ()) ?(db = Mvcc.create ())
    ?(seq = Timestamp.zero) ?(resumed_at = 0) () =
  let module Obs = Lsr_obs.Obs in
  let obs = sinks.Lsr_obs.Sinks.obs in
  let inst fmt suffix = Printf.sprintf fmt name suffix in
  {
    name;
    db;
    update_queue = Queue.create ();
    refresh_txns = Txns.create 32;
    applicators = Queue.create ();
    tail = Timestamp.zero;
    seq_dbsec = seq;
    resumed_at;
    on_refresh_commit;
    sinks;
    site = Lsr_obs.Flight.intern sinks.Lsr_obs.Sinks.flight name;
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
  (match record with
  | Wal.Commit { txn; _ } ->
    Lsr_obs.Sinks.stage t.sinks ~site:t.site ~txn Lsr_obs.Flight.Enqueued
      ~record:(-1) (-1)
  | Wal.Start _ | Wal.Abort _ -> ());
  note_update_queue t

let seq_dbsec t = t.seq_dbsec

let note_pending t =
  Lsr_obs.Obs.set_gauge t.g_pending (float_of_int (Queue.length t.applicators))

let pop_update t =
  ignore (Queue.pop t.update_queue);
  note_update_queue t

let refresher_ready t =
  match Queue.peek_opt t.update_queue with
  | None -> false
  | Some (Wal.Start _) -> Queue.is_empty t.applicators
  | Some (Wal.Commit _ | Wal.Abort _) -> true

let refresher_step t =
  match Queue.peek_opt t.update_queue with
  | None -> Idle
  | Some (Wal.Start { txn; _ }) ->
    if not (refresher_ready t) then Blocked_on_pending
    else begin
      pop_update t;
      let refresh = Mvcc.begin_txn t.db in
      Txns.replace t.refresh_txns txn refresh;
      Lsr_obs.Sinks.stage t.sinks ~site:t.site ~txn
        Lsr_obs.Flight.Refresh_started ~record:(-1) (-1);
      Lsr_obs.Obs.incr t.c_started;
      Started txn
    end
  | Some (Wal.Commit { txn; ts = commit_ts; updates }) ->
    pop_update t;
    let refresh =
      match Txns.find_opt t.refresh_txns txn with
      | Some r ->
        Txns.remove t.refresh_txns txn;
        r
      | None when txn < t.resumed_at ->
        (* Its start record was shipped before this site recovered from a
           copy holding every commit before that start, so any txn still
           pending here is concurrent with it and writes other keys. *)
        Mvcc.begin_txn t.db
      | None -> raise (Commit_without_start { txn })
    in
    (* Handed over whole to the uncommitted refresh txn, so nobody sees them
       before the commit, which installs and keeps this very list. *)
    Mvcc.write_all t.db refresh updates;
    Queue.add { primary_txn = txn; commit_ts; refresh } t.applicators;
    t.tail <- commit_ts;
    note_pending t;
    Dispatched (List.length updates)
  | Some (Wal.Abort { txn; writes }) ->
    pop_update t;
    (match Txns.find_opt t.refresh_txns txn with
    | Some refresh ->
      Txns.remove t.refresh_txns txn;
      Mvcc.abort t.db refresh
    | None -> ());
    Lsr_obs.Obs.incr t.c_aborted;
    Aborted writes

let commit_head t =
  match Queue.peek_opt t.applicators with
  | None -> false
  | Some app -> (
    match Mvcc.commit t.db app.refresh with
    | Mvcc.Committed _local_ts ->
      ignore (Queue.pop t.applicators);
      note_pending t;
      t.seq_dbsec <- app.commit_ts;
      Lsr_obs.Sinks.stage t.sinks ~site:t.site ~txn:app.primary_txn
        Lsr_obs.Flight.Refresh_committed ~record:(-1) app.commit_ts;
      t.on_refresh_commit app.commit_ts;
      true
    | Mvcc.Aborted (Mvcc.Write_conflict key) ->
      raise (Refresh_conflict { txn = app.primary_txn; key })
    | Mvcc.Aborted Mvcc.Forced ->
      raise (Refresh_conflict { txn = app.primary_txn; key = "<forced>" }))

let pending_tail t =
  if Queue.is_empty t.applicators then t.seq_dbsec else t.tail

let applicator_local_start app = Mvcc.start_ts app.refresh
let active_applicators t = List.of_seq (Queue.to_seq t.applicators)

let update_queue_length t = Queue.length t.update_queue
let pending_queue_length t = Queue.length t.applicators
