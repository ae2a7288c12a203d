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

type txn = { mvcc : Mvcc.txn; snapshot : Timestamp.t }

let start t =
  let snapshot = Mvcc.latest_commit_ts t.db in
  { mvcc = Mvcc.begin_txn t.db; snapshot }

let finish t ?(force_abort = false) { mvcc; snapshot } value =
  if force_abort then begin
    Mvcc.abort t.db mvcc;
    Aborted Mvcc.Forced
  end
  else begin
    match Mvcc.commit t.db mvcc with
    | Mvcc.Committed commit_ts ->
      (* The updates the commit just installed, not computed again. *)
      let writes = Mvcc.pending_writes mvcc in
      Committed { value; txn = Mvcc.txn_id mvcc; commit_ts; snapshot; writes }
    | Mvcc.Aborted reason -> Aborted reason
  end

let execute t ?force_abort body =
  let txn = start t in
  let value =
    try body t.db txn.mvcc
    with exn ->
      Mvcc.abort t.db txn.mvcc;
      raise exn
  in
  finish t ?force_abort txn value
