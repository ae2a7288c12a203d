open Lsr_storage

type t = {
  db : Mvcc.t;
  txn : Mvcc.txn;
  schema : (string * string list) list;
  mutable reads : (string * string option) list;  (* newest first *)
}

let make ?(schema = []) db txn = { db; txn; schema; reads = [] }

let get t key =
  let value = Mvcc.read t.db t.txn key in
  t.reads <- (key, value) :: t.reads;
  value

let put t key value = Mvcc.write t.db t.txn key (Some value)
let del t key = Mvcc.write t.db t.txn key None

let table t name =
  let indexes = Option.value ~default:[] (List.assoc_opt name t.schema) in
  Table.define ~indexes t.db ~name

let row_get t ~table:name ~pk =
  let key = Table.storage_key (table t name) ~pk in
  let encoded = Mvcc.read t.db t.txn key in
  t.reads <- (key, encoded) :: t.reads;
  Option.map Row.decode encoded

let row_put t ~table:name ~pk row = Table.insert (table t name) t.txn ~pk row
let row_del t ~table:name ~pk = Table.delete (table t name) t.txn ~pk

let row_update t ~table ~pk f =
  match row_get t ~table ~pk with
  | None -> false
  | Some row ->
    row_put t ~table ~pk (f row);
    true

let row_scan t ~table:name ~where =
  let tbl = table t name in
  let rows = Table.scan tbl t.txn ~where in
  (* Record each visible row as a read so the checker can validate scans. *)
  List.iter
    (fun (pk, row) ->
      t.reads <-
        (Table.storage_key tbl ~pk, Some (Row.encode row)) :: t.reads)
    rows;
  rows

let row_lookup t ~table:name ~field ~value =
  let tbl = table t name in
  let rows = Table.lookup tbl t.txn ~field ~value in
  List.iter
    (fun (pk, row) ->
      t.reads <- (Table.storage_key tbl ~pk, Some (Row.encode row)) :: t.reads)
    rows;
  rows

let row_range t ~table:name ~field ~lo ~hi =
  let tbl = table t name in
  let rows = Table.range_lookup tbl t.txn ~field ~lo ~hi in
  List.iter
    (fun (pk, row) ->
      t.reads <- (Table.storage_key tbl ~pk, Some (Row.encode row)) :: t.reads)
    rows;
  rows

let indexed_fields t ~table:name =
  Option.value ~default:[] (List.assoc_opt name t.schema)

let reads t = List.rev t.reads
