type t = {
  db : Mvcc.t;
  name : string;
  prefix : string;
  indexes : string list;
}

let define ?(indexes = []) db ~name =
  { db; name; prefix = "t:" ^ name ^ ":"; indexes }

let storage_key t ~pk = t.prefix ^ pk

(* Index entries: "i:<table>:<field>:<order_key>\x00<pk>". [Row.order_key]
   never contains '\x00', so the separator makes the encoding injective, and
   entries for one field sort by value then pk — equality lookups and range
   scans are both contiguous key runs. *)
let field_prefix t ~field = Printf.sprintf "i:%s:%s:" t.name field

let index_prefix t ~field ~value =
  field_prefix t ~field ^ Row.order_key value ^ "\x00"

let index_key t ~field ~value ~pk = index_prefix t ~field ~value ^ pk

let index_entries t row ~pk =
  List.filter_map
    (fun field ->
      match Row.find row field with
      | Some value -> Some (index_key t ~field ~value ~pk)
      | None -> None)
    t.indexes

let get t txn ~pk =
  match Mvcc.read t.db txn (storage_key t ~pk) with
  | None -> None
  | Some encoded -> Some (Row.decode encoded)

let maintain_indexes t txn ~pk ~old_row ~new_row =
  if t.indexes <> [] then begin
    let old_entries =
      match old_row with Some row -> index_entries t row ~pk | None -> []
    in
    let new_entries =
      match new_row with Some row -> index_entries t row ~pk | None -> []
    in
    List.iter
      (fun key ->
        if not (List.mem key new_entries) then Mvcc.write t.db txn key None)
      old_entries;
    List.iter
      (fun key ->
        if not (List.mem key old_entries) then Mvcc.write t.db txn key (Some ""))
      new_entries
  end

let insert t txn ~pk row =
  let old_row = if t.indexes = [] then None else get t txn ~pk in
  Mvcc.write t.db txn (storage_key t ~pk) (Some (Row.encode row));
  maintain_indexes t txn ~pk ~old_row ~new_row:(Some row)

let update t txn ~pk f =
  match get t txn ~pk with
  | None -> false
  | Some row ->
    let updated = f row in
    Mvcc.write t.db txn (storage_key t ~pk) (Some (Row.encode updated));
    maintain_indexes t txn ~pk ~old_row:(Some row) ~new_row:(Some updated);
    true

let delete t txn ~pk =
  let old_row = if t.indexes = [] then None else get t txn ~pk in
  Mvcc.write t.db txn (storage_key t ~pk) None;
  maintain_indexes t txn ~pk ~old_row ~new_row:None

(* Keys with [prefix] visible to [txn]: committed keys plus the
   transaction's own fresh inserts. *)
let candidate_keys t txn ~prefix =
  let prefix_len = String.length prefix in
  let has_prefix k =
    String.length k >= prefix_len && String.sub k 0 prefix_len = prefix
  in
  let committed =
    Mvcc.fold_keys t.db ~prefix ~init:[] ~f:(fun acc k -> k :: acc)
  in
  let own = List.filter has_prefix (Mvcc.written_keys txn) in
  List.sort_uniq String.compare (own @ committed)

(* Keys in [start, halt), committed or freshly written by [txn]. The
   committed side seeks to [start] and stops at the first key >= [halt],
   so cost is proportional to the run, not the store. *)
let candidate_range t txn ~start ~halt =
  let in_bounds k = String.compare start k <= 0 && String.compare k halt < 0 in
  let rec collect acc seq =
    match seq () with
    | Seq.Nil -> acc
    | Seq.Cons (key, rest) ->
      if String.compare key halt < 0 then collect (key :: acc) rest else acc
  in
  let committed = collect [] (Mvcc.keys_from t.db start) in
  let own = List.filter in_bounds (Mvcc.written_keys txn) in
  List.sort_uniq String.compare (own @ committed)

let scan t txn ~where =
  let prefix_len = String.length t.prefix in
  let visible =
    List.filter_map
      (fun key ->
        match Mvcc.read t.db txn key with
        | None -> None
        | Some encoded ->
          let row = Row.decode encoded in
          if where row then
            Some (String.sub key prefix_len (String.length key - prefix_len), row)
          else None)
      (candidate_keys t txn ~prefix:t.prefix)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) visible

let require_index t ~op ~field =
  if not (List.mem field t.indexes) then
    invalid_arg (Printf.sprintf "Table.%s: no index on %s.%s" op t.name field)

(* Resolve visible index entries to rows, re-verifying the stored value with
   [verify] — the index is a superset hint (equal [order_key]s can merge
   distinct huge ints), never the last word on a match. *)
let resolve_entries t txn ~field ~base_len ~verify keys =
  let rows =
    List.filter_map
      (fun key ->
        match Mvcc.read t.db txn key with
        | None -> None (* entry deleted in this snapshot *)
        | Some _ -> (
          let sep =
            match String.index_from_opt key base_len '\x00' with
            | Some i -> i
            | None -> String.length key
          in
          let pk = String.sub key (sep + 1) (String.length key - sep - 1) in
          match get t txn ~pk with
          | Some row -> (
            match Row.find row field with
            | Some stored when verify stored -> Some (pk, row)
            | Some _ | None -> None)
          | None -> None))
      keys
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let lookup t txn ~field ~value =
  require_index t ~op:"lookup" ~field;
  let prefix = index_prefix t ~field ~value in
  let base_len = String.length (field_prefix t ~field) in
  let verify stored = Row.scalar_compare stored value = Some 0 in
  resolve_entries t txn ~field ~base_len ~verify
    (candidate_keys t txn ~prefix)

let range_lookup t txn ~field ~lo ~hi =
  require_index t ~op:"range_lookup" ~field;
  let base = field_prefix t ~field in
  (* Bound keys: entries carry a '\x00' separator after the order key, so
     appending '\x01' ("just past every pk of this value") or '\x00' ("at
     the first pk of this value") turns inclusive/exclusive bounds into a
     half-open key interval. Unbounded sides stop at the value-type band. *)
  let start =
    match lo with
    | Some (v, true) -> base ^ Row.order_key v
    | Some (v, false) -> base ^ Row.order_key v ^ "\x01"
    | None -> (
      match hi with
      | Some (v, _) -> base ^ String.make 1 (Row.order_tag v)
      | None -> base)
  in
  let halt =
    match hi with
    | Some (v, true) -> base ^ Row.order_key v ^ "\x01"
    | Some (v, false) -> base ^ Row.order_key v ^ "\x00"
    | None -> (
      match lo with
      | Some (v, _) ->
        base ^ String.make 1 (Char.chr (Char.code (Row.order_tag v) + 1))
      | None -> base ^ "\xff")
  in
  let within bound ~dir stored =
    match bound with
    | None -> true
    | Some (v, incl) -> (
      match Row.scalar_compare stored v with
      | None -> false
      | Some c ->
        let c = c * dir in
        if incl then c >= 0 else c > 0)
  in
  let verify stored = within lo ~dir:1 stored && within hi ~dir:(-1) stored in
  resolve_entries t txn ~field ~base_len:(String.length base) ~verify
    (candidate_range t txn ~start ~halt)
