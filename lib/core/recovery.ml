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
      | Txn_record.Commit_rec { txn; commit_ts; _ }
        when Timestamp.compare commit_ts after > 0 ->
        Hashtbl.replace wanted txn ()
      | Txn_record.Start_rec _ | Txn_record.Commit_rec _
      | Txn_record.Abort_rec _ -> ())
    records;
  List.filter
    (function
      | Txn_record.Start_rec { txn; _ } | Txn_record.Commit_rec { txn; _ } ->
        Hashtbl.mem wanted txn
      | Txn_record.Abort_rec _ -> false)
    records

let restore ?(name = "recovered") ~primary b =
  let fresh = Secondary.create ~name ~db:(Mvcc.restore b.state) () in
  Secondary.reseed_seq fresh b.ts;
  (* Raises inside Wal.read_from if the prefix is gone: that is data loss. *)
  let replayer = Propagation.create ~from:0 (Primary.wal primary) in
  let records = Propagation.poll replayer in
  List.iter (Secondary.enqueue fresh) (replay_filter ~after:b.ts records);
  ignore (Secondary.drain fresh);
  fresh
