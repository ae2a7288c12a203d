open Lsr_storage

type t = {
  wal : Wal.t;
  mutable cursor : int;
  ship_aborted : bool;
  (* Transactions whose start entry was read and whose commit or abort was
     not yet. *)
  mutable in_flight : int;
}

let create ?(ship_aborted = false) wal =
  { wal; cursor = 0; ship_aborted; in_flight = 0 }

(* The record shipped for a log entry: the entry itself, except that an
   abort carries its write count only under [ship_aborted]. *)
let record_of_entry t entry =
  match entry with
  | Wal.Start _ ->
    t.in_flight <- t.in_flight + 1;
    entry
  | Wal.Commit _ ->
    t.in_flight <- t.in_flight - 1;
    entry
  | Wal.Abort { txn; writes } ->
    t.in_flight <- t.in_flight - 1;
    if t.ship_aborted || writes = 0 then entry else Wal.Abort { txn; writes = 0 }

let poll t =
  let entries, next = Wal.read_from t.wal t.cursor in
  t.cursor <- next;
  List.map (record_of_entry t) entries

let position t = t.cursor
let in_flight t = t.in_flight
