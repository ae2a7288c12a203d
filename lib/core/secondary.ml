open Lsr_storage
module Txns = Hashtbl.Make (Int)

exception Refresh_conflict of { txn : int; key : string }
exception Commit_without_start of { txn : int }

type applicator = {
  primary_txn : int;
  commit_ts : Timestamp.t;
  digest : int;  (* the primary's digest after this commit *)
  refresh : Mvcc.txn;  (* holds the shipped updates, buffered since dispatch *)
}

type t = {
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
  (* The first primary txn whose refresh left a digest other than its
     record's, or -1. *)
  mutable diverged : int;
  (* Primary txns below this id started before this site was recovered. *)
  resumed_at : int;
}

type refresher_outcome =
  | Started of int
  | Dispatched of int
  | Aborted of int
  | Blocked_on_pending
  | Idle

let create ?(db = Mvcc.create ()) ?(seq = Timestamp.zero) ?(resumed_at = 0)
    () =
  {
    db;
    update_queue = Queue.create ();
    refresh_txns = Txns.create 32;
    applicators = Queue.create ();
    tail = Timestamp.zero;
    seq_dbsec = seq;
    diverged = -1;
    resumed_at;
  }

let db t = t.db
let enqueue t record = Queue.add record t.update_queue
let seq_dbsec t = t.seq_dbsec
let diverged t = t.diverged
let pop_update t = ignore (Queue.pop t.update_queue)

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
      Started txn
    end
  | Some (Wal.Commit { txn; ts = commit_ts; updates; digest }) ->
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
       before the commit, which installs this very list. *)
    Mvcc.write_all t.db refresh updates;
    Queue.add { primary_txn = txn; commit_ts; digest; refresh } t.applicators;
    t.tail <- commit_ts;
    Dispatched (List.length updates)
  | Some (Wal.Abort { txn; writes }) ->
    pop_update t;
    (match Txns.find_opt t.refresh_txns txn with
    | Some refresh ->
      Txns.remove t.refresh_txns txn;
      Mvcc.abort t.db refresh
    | None -> ());
    Aborted writes

let commit_head t =
  if Queue.is_empty t.applicators then -1
  else
    let app = Queue.peek t.applicators in
    match Mvcc.commit t.db app.refresh with
    | Mvcc.Committed _local_ts ->
      ignore (Queue.pop t.applicators);
      t.seq_dbsec <- app.commit_ts;
      if t.diverged < 0 && Mvcc.digest t.db <> app.digest then
        t.diverged <- app.primary_txn;
      app.primary_txn
    | Mvcc.Aborted (Mvcc.Write_conflict key) ->
      raise (Refresh_conflict { txn = app.primary_txn; key })
    | Mvcc.Aborted Mvcc.Forced ->
      raise (Refresh_conflict { txn = app.primary_txn; key = "<forced>" })

let pending_tail t =
  if Queue.is_empty t.applicators then t.seq_dbsec else t.tail

let applicator_txn app = app.refresh
let active_applicators t = List.of_seq (Queue.to_seq t.applicators)

let update_queue_length t = Queue.length t.update_queue
let pending_queue_length t = Queue.length t.applicators
