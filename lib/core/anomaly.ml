type op =
  | Begin of int
  | Read of { txn : int; key : string; value : string option }
  | Pred_read of { txn : int; pred : string; result : string list }
  | Write of { txn : int; key : string; value : string option; preds : string list }
  | Commit of int
  | Abort of int

type history = op list
type witness = int * int

(* Indexed view of a history: each op paired with its position. *)
let indexed h = List.mapi (fun i op -> (i, op)) h

let txn_of = function
  | Begin t | Commit t | Abort t -> t
  | Read { txn; _ } | Pred_read { txn; _ } | Write { txn; _ } -> txn

let positions_of_end h =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, op) ->
      match op with
      | Commit t | Abort t -> if not (Hashtbl.mem tbl t) then Hashtbl.add tbl t i
      | Begin _ | Read _ | Pred_read _ | Write _ -> ())
    (indexed h);
  tbl

let committed_txns h =
  List.filter_map (function Commit t -> Some t | _ -> None) h

let commit_position h t =
  let rec find i = function
    | [] -> None
    | Commit t' :: _ when t' = t -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 h

let begin_position h t =
  let rec find i = function
    | [] -> None
    | Begin t' :: _ when t' = t -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 h

let writes_of h t =
  List.filter_map
    (fun (i, op) ->
      match op with
      | Write { txn; key; value; _ } when txn = t -> Some (i, key, value)
      | _ -> None)
    (indexed h)

let reads_of h t =
  List.filter_map
    (fun (i, op) ->
      match op with
      | Read { txn; key; value } when txn = t -> Some (i, key, value)
      | _ -> None)
    (indexed h)

let uniq pairs = List.sort_uniq compare pairs

(* P0: t2 writes a key between t1's write of it and t1's end; both commit. *)
let dirty_writes h =
  let ends = positions_of_end h in
  let committed = committed_txns h in
  let witness t1 =
    match Hashtbl.find_opt ends t1 with
    | None -> []
    | Some end1 ->
      List.concat_map
        (fun (p1, key, _) ->
          List.filter_map
            (fun (i, op) ->
              match op with
              | Write { txn = t2; key = k2; _ }
                when t2 <> t1 && k2 = key && i > p1 && i < end1
                     && List.mem t2 committed ->
                Some (t1, t2)
              | _ -> None)
            (indexed h))
        (writes_of h t1)
  in
  uniq (List.concat_map witness committed)

(* P1: t2 observed, before t1's end, a value that at that point existed only
   as t1's uncommitted write. *)
let dirty_reads h =
  let ends = positions_of_end h in
  let result = ref [] in
  List.iter
    (fun (i, op) ->
      match op with
      | Read { txn = t2; key; value = Some v } ->
        (* Which committed value was current at position i? *)
        let committed_value =
          List.fold_left
            (fun acc (j, op') ->
              match op' with
              | Write { txn = tw; key = kw; value; _ }
                when kw = key && j < i -> (
                match commit_position h tw with
                | Some cp when cp < i -> Some (value, cp)
                | Some _ | None -> acc)
              | _ -> acc)
            None (indexed h)
        in
        let is_committed_value =
          match committed_value with
          | Some (Some v', _) -> v' = v
          | Some (None, _) | None -> false
        in
        if not is_committed_value then
          (* Did some other transaction have an uncommitted write of v? *)
          List.iter
            (fun (j, op') ->
              match op' with
              | Write { txn = t1; key = kw; value = Some v'; _ }
                when t1 <> t2 && kw = key && v' = v && j < i -> (
                match Hashtbl.find_opt ends t1 with
                | Some e1 when i < e1 -> result := (t1, t2) :: !result
                | Some _ -> ()
                | None -> result := (t1, t2) :: !result)
              | _ -> ())
            (indexed h)
      | _ -> ())
    (indexed h);
  uniq !result

(* P2: t1 read the same key twice with different observed values; t2
   committed a write to that key in between. *)
let fuzzy_reads h =
  let txns = List.sort_uniq compare (List.map txn_of h) in
  let result = ref [] in
  List.iter
    (fun t1 ->
      let reads = reads_of h t1 in
      List.iter
        (fun (p1, key, v1) ->
          List.iter
            (fun (p2, key', v2) ->
              if key = key' && p2 > p1 && v1 <> v2 then
                (* find a t2 that committed a write to key in (p1, p2) *)
                List.iter
                  (fun (j, op) ->
                    match op with
                    | Write { txn = t2; key = kw; _ }
                      when t2 <> t1 && kw = key && j > p1 -> (
                      match commit_position h t2 with
                      | Some cp when cp < p2 -> result := (t1, t2) :: !result
                      | Some _ | None -> ())
                    | _ -> ())
                  (indexed h))
            reads)
        reads)
    txns;
  uniq !result

(* P3: t1 evaluated a predicate twice with different result sets; t2
   committed a predicate-affecting write in between. *)
let phantoms h =
  let result = ref [] in
  let pred_reads t1 =
    List.filter_map
      (fun (i, op) ->
        match op with
        | Pred_read { txn; pred; result } when txn = t1 -> Some (i, pred, result)
        | _ -> None)
      (indexed h)
  in
  let txns = List.sort_uniq compare (List.map txn_of h) in
  List.iter
    (fun t1 ->
      let prs = pred_reads t1 in
      List.iter
        (fun (p1, pred, r1) ->
          List.iter
            (fun (p2, pred', r2) ->
              if pred = pred' && p2 > p1 && r1 <> r2 then
                List.iter
                  (fun (j, op) ->
                    match op with
                    | Write { txn = t2; preds; _ }
                      when t2 <> t1 && List.mem pred preds && j > p1 -> (
                      match commit_position h t2 with
                      | Some cp when cp < p2 -> result := (t1, t2) :: !result
                      | Some _ | None -> ())
                    | _ -> ())
                  (indexed h))
            prs)
        prs)
    txns;
  uniq !result

(* P4: t1 read a key, t2 committed a write to it afterwards, then t1 wrote
   the key and committed. t2's committed update is lost. *)
let lost_updates h =
  let committed = committed_txns h in
  let result = ref [] in
  List.iter
    (fun t1 ->
      match commit_position h t1 with
      | None -> ()
      | Some c1 ->
        let reads = reads_of h t1 and writes = writes_of h t1 in
        List.iter
          (fun (pr, key, _) ->
            List.iter
              (fun (pw, key', _) ->
                if key = key' && pw > pr then
                  List.iter
                    (fun t2 ->
                      if t2 <> t1 then
                        List.iter
                          (fun (j, k2, _) ->
                            match commit_position h t2 with
                            | Some c2
                              when k2 = key && j > pr && c2 > pr && c2 < c1 ->
                              result := (t1, t2) :: !result
                            | Some _ | None -> ())
                          (writes_of h t2))
                    committed)
              writes)
          reads)
    committed;
  uniq !result

(* P5: committed, temporally overlapping transactions with disjoint write
   sets, each reading a key the other writes. *)
let write_skews h =
  let committed = committed_txns h in
  let keys_read t = List.map (fun (_, k, _) -> k) (reads_of h t) in
  let keys_written t = List.map (fun (_, k, _) -> k) (writes_of h t) in
  let overlap a b = List.exists (fun k -> List.mem k b) a in
  let concurrent t1 t2 =
    match (begin_position h t1, commit_position h t1,
           begin_position h t2, commit_position h t2) with
    | Some b1, Some c1, Some b2, Some c2 -> b1 < c2 && b2 < c1
    | _ -> false
  in
  let result = ref [] in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          if t1 < t2 && concurrent t1 t2 then begin
            let ws1 = keys_written t1 and ws2 = keys_written t2 in
            let rs1 = keys_read t1 and rs2 = keys_read t2 in
            if
              (not (overlap ws1 ws2))
              && overlap rs1 ws2 && overlap rs2 ws1
              && ws1 <> [] && ws2 <> []
            then result := (t1, t2) :: !result
          end)
        committed)
    committed;
  uniq !result
