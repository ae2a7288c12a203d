open Lsr_storage

exception Read_only of { key : string }

type t = {
  db : Mvcc.t;
  txn : Mvcc.txn;
  schema : (string * string list) list;
  tracked : bool;
  read_only : bool;
  reads : History.reads;
}

let make ~schema ~tracked ~read_only reads db txn =
  { db; txn; schema; tracked; read_only; reads }
let txn t = t.txn
let reads t = t.reads
let served t key value = if t.tracked then History.serve t.reads key value

let get t key =
  let value = Mvcc.read t.db t.txn key in
  served t key value;
  value

let get_number t n =
  let value = Mvcc.read_number t.db t.txn n in
  if t.tracked then History.serve t.reads (Mvcc.number_key t.db n) value;
  value

let refuse t key = if t.read_only then raise (Read_only { key })
let put t key value = refuse t key; Mvcc.write t.db t.txn key (Some value)
let del t key = refuse t key; Mvcc.write t.db t.txn key None

let table t name =
  let indexes = Option.value ~default:[] (List.assoc_opt name t.schema) in
  Table.define ~indexes t.db ~name

let row_get t ~table:name ~pk =
  let key = Table.storage_key (table t name) ~pk in
  let encoded = Mvcc.read t.db t.txn key in
  served t key encoded;
  Option.map Row.decode encoded

(* The table to write row [pk] of, once the handle may write it. *)
let writable t name ~pk =
  let tbl = table t name in
  refuse t (Table.storage_key tbl ~pk);
  tbl

let row_put t ~table:name ~pk row = Table.insert (writable t name ~pk) t.txn ~pk row
let row_del t ~table:name ~pk = Table.delete (writable t name ~pk) t.txn ~pk

let row_update t ~table ~pk f =
  match row_get t ~table ~pk with
  | None -> false
  | Some row ->
    row_put t ~table ~pk (f row);
    true

(* Each visible row counts as a read, so the checker can validate scans. *)
let served_rows t tbl rows =
  if t.tracked then
    List.iter
      (fun (pk, row) ->
        History.serve t.reads (Table.storage_key tbl ~pk) (Some (Row.encode row)))
      rows;
  rows

let row_scan t ~table:name ~where =
  let tbl = table t name in
  served_rows t tbl (Table.scan tbl t.txn ~where)

let row_lookup t ~table:name ~field ~value =
  let tbl = table t name in
  served_rows t tbl (Table.lookup tbl t.txn ~field ~value)

let row_range t ~table:name ~field ~lo ~hi =
  let tbl = table t name in
  served_rows t tbl (Table.range_lookup tbl t.txn ~field ~lo ~hi)

let indexed_fields t ~table:name =
  Option.value ~default:[] (List.assoc_opt name t.schema)
