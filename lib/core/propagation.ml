open Lsr_storage
module Txns = Hashtbl.Make (Int)

type t = {
  wal : Wal.t;
  mutable cursor : int;
  ship_aborted : bool;
  (* Per-transaction accumulated updates (newest first), per Algorithm 3.1's
     update lists. *)
  update_lists : Wal.update list Txns.t;
  sinks : Lsr_obs.Sinks.t;
  c_polls : Lsr_obs.Obs.counter;
  c_shipped : Lsr_obs.Obs.counter;
  g_in_flight : Lsr_obs.Obs.gauge;
}

let create ?from ?(ship_aborted = false) ?(sinks = Lsr_obs.Sinks.null) wal =
  let cursor = match from with Some o -> o | None -> Wal.length wal in
  let obs = sinks.Lsr_obs.Sinks.obs in
  {
    wal;
    cursor;
    ship_aborted;
    update_lists = Txns.create 64;
    sinks;
    c_polls = Lsr_obs.Obs.counter obs "propagation.polls";
    c_shipped = Lsr_obs.Obs.counter obs "propagation.records_shipped";
    g_in_flight = Lsr_obs.Obs.gauge obs "propagation.in_flight";
  }

let record_of_entry t entry =
  match entry with
  | Wal.Start { txn; ts } ->
    Txns.replace t.update_lists txn [];
    if Lsr_obs.Sinks.tracing t.sinks then
      Lsr_obs.Sinks.stage t.sinks ~txn Lsr_obs.Flight.Batched;
    Some (Txn_record.Start_rec { txn; start_ts = ts })
  | Wal.Update { txn; update } ->
    let sofar = Option.value ~default:[] (Txns.find_opt t.update_lists txn) in
    Txns.replace t.update_lists txn (update :: sofar);
    None
  | Wal.Commit { txn; ts } ->
    let accumulated =
      Option.value ~default:[] (Txns.find_opt t.update_lists txn)
    in
    Txns.remove t.update_lists txn;
    (* The refresh transaction re-executes these verbatim. *)
    let updates = Wal.squash (List.rev accumulated) in
    if Lsr_obs.Sinks.tracing t.sinks then
      Lsr_obs.Sinks.stage t.sinks ~txn
        (Lsr_obs.Flight.Shipped { updates = List.length updates });
    Some (Txn_record.Commit_rec { txn; commit_ts = ts; updates })
  | Wal.Abort { txn } ->
    let wasted =
      if t.ship_aborted then
        List.rev (Option.value ~default:[] (Txns.find_opt t.update_lists txn))
      else []
    in
    Txns.remove t.update_lists txn;
    Some (Txn_record.Abort_rec { txn; wasted })

let poll t =
  let entries, next = Wal.read_from t.wal t.cursor in
  t.cursor <- next;
  let records = List.filter_map (record_of_entry t) entries in
  Lsr_obs.Obs.incr t.c_polls;
  Lsr_obs.Obs.incr t.c_shipped ~by:(List.length records);
  Lsr_obs.Obs.set_gauge t.g_in_flight
    (float_of_int (Txns.length t.update_lists));
  records

let position t = t.cursor
let in_flight t = Txns.length t.update_lists
