open Lsr_storage

type t = { db : Mvcc.t }

let create ?keys () = { db = Mvcc.create ~log:(Wal.create ()) ?keys () }

let db t = t.db
let wal t = Mvcc.wal t.db

let start t = Mvcc.begin_txn t.db

let finish t ~force_abort txn =
  if force_abort then begin
    Mvcc.abort t.db txn;
    Mvcc.Aborted Mvcc.Forced
  end
  else Mvcc.commit t.db txn
