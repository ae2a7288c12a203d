open Lsr_storage

type t = { db : Mvcc.t }

let create ?commit_log () =
  { db = Mvcc.create ~log:(Wal.create ()) ?commit_log () }

let db t = t.db
let wal t = Mvcc.wal t.db

type 'a outcome =
  | Committed of {
      value : 'a;
      txn : int;
      commit_ts : Timestamp.t;
      snapshot : Timestamp.t;
      writes : Wal.update list;
    }
  | Aborted of Mvcc.abort_reason

let execute t ?(force_abort = false) body =
  let snapshot = Mvcc.latest_commit_ts t.db in
  let txn = Mvcc.begin_txn t.db in
  let value =
    try body t.db txn
    with exn ->
      Mvcc.abort t.db txn;
      raise exn
  in
  if force_abort then begin
    Mvcc.abort t.db txn;
    Aborted Mvcc.Forced
  end
  else begin
    match Mvcc.commit t.db txn with
    | Mvcc.Committed commit_ts ->
      (* The updates the commit just installed, not computed again. *)
      let writes = Mvcc.pending_writes txn in
      Committed { value; txn = Mvcc.txn_id txn; commit_ts; snapshot; writes }
    | Mvcc.Aborted reason -> Aborted reason
  end
