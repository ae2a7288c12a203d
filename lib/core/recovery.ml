open Lsr_storage

type backup = { state : string; ts : Timestamp.t }

let backup primary =
  {
    state = Mvcc.serialize (Primary.db primary);
    ts = Mvcc.latest_commit_ts (Primary.db primary);
  }

let replay_filter ~after records =
  (* Transactions whose commit lies beyond the backup point; everything else
     is either already in the backup or installed nothing. *)
  let wanted = Hashtbl.create 32 in
  List.iter
    (function
      | Wal.Commit { txn; ts; _ } when Timestamp.compare ts after > 0 ->
        Hashtbl.replace wanted txn ()
      | Wal.Start _ | Wal.Commit _ | Wal.Abort _ -> ())
    records;
  List.filter
    (function
      | Wal.Start { txn; _ } | Wal.Commit { txn; _ } -> Hashtbl.mem wanted txn
      | Wal.Abort _ -> false)
    records

let restore ?(name = "recovered") ~primary b =
  let fresh = Secondary.create ~name ~db:(Mvcc.restore b.state) () in
  Secondary.reseed_seq fresh b.ts;
  (* Raises inside Wal.read_from if the prefix is gone: that is data loss. *)
  let replayer = Propagation.create (Primary.wal primary) in
  let records = Propagation.poll replayer in
  List.iter (Secondary.enqueue fresh) (replay_filter ~after:b.ts records);
  ignore (Secondary.drain fresh);
  fresh
