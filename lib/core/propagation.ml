open Lsr_storage

type t = {
  wal : Wal.t;
  mutable cursor : int;
  ship_aborted : bool;
  (* Transactions whose start entry was read and whose commit or abort was
     not yet. *)
  mutable in_flight : int;
  sinks : Lsr_obs.Sinks.t;
  c_polls : Lsr_obs.Obs.counter;
  c_shipped : Lsr_obs.Obs.counter;
  g_in_flight : Lsr_obs.Obs.gauge;
}

let create ?(ship_aborted = false) ?(sinks = Lsr_obs.Sinks.null) wal =
  let obs = sinks.Lsr_obs.Sinks.obs in
  {
    wal;
    cursor = 0;
    ship_aborted;
    in_flight = 0;
    sinks;
    c_polls = Lsr_obs.Obs.counter obs "propagation.polls";
    c_shipped = Lsr_obs.Obs.counter obs "propagation.records_shipped";
    g_in_flight = Lsr_obs.Obs.gauge obs "propagation.in_flight";
  }

(* The record shipped for a log entry: the entry itself, except that an
   abort carries its write count only under [ship_aborted]. *)
let record_of_entry t entry =
  match entry with
  | Wal.Start { txn; _ } ->
    t.in_flight <- t.in_flight + 1;
    Lsr_obs.Sinks.stage t.sinks ~site:(-1) ~txn Lsr_obs.Flight.Batched
      ~record:(-1) (-1);
    entry
  | Wal.Commit { txn; updates; _ } ->
    t.in_flight <- t.in_flight - 1;
    if Lsr_obs.Sinks.tracing t.sinks then
      Lsr_obs.Sinks.stage t.sinks ~site:(-1) ~txn Lsr_obs.Flight.Shipped
        ~record:(-1) (List.length updates);
    entry
  | Wal.Abort { txn; writes } ->
    t.in_flight <- t.in_flight - 1;
    if t.ship_aborted || writes = 0 then entry else Wal.Abort { txn; writes = 0 }

let poll t =
  let entries, next = Wal.read_from t.wal t.cursor in
  t.cursor <- next;
  let records = List.map (record_of_entry t) entries in
  Lsr_obs.Obs.incr t.c_polls;
  Lsr_obs.Obs.incr t.c_shipped ~by:(List.length records);
  Lsr_obs.Obs.set_gauge t.g_in_flight (float_of_int t.in_flight);
  records

let position t = t.cursor
let in_flight t = t.in_flight
