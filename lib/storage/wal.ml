type update = { key : string; value : string option }

type entry =
  | Start of { txn : int; ts : Timestamp.t }
  | Commit of { txn : int; ts : Timestamp.t; updates : update list; digest : int }
  | Abort of { txn : int; writes : int }

let txn = function Start { txn; _ } | Commit { txn; _ } | Abort { txn; _ } -> txn

let kind_name = function
  | Start _ -> "start"
  | Commit _ -> "commit"
  | Abort _ -> "abort"

type t = {
  mutable entries : entry array;
  (* Entries below [base] have been reclaimed; absolute offset [i] lives at
     [entries.(i - base)]. *)
  mutable base : int;
  mutable size : int;
}

let create () = { entries = [||]; base = 0; size = 0 }

let dummy = Abort { txn = -1; writes = 0 }

let append t e =
  let used = t.size - t.base in
  if used = Array.length t.entries then begin
    let fresh = Array.make (max 16 (2 * used)) dummy in
    Array.blit t.entries 0 fresh 0 used;
    t.entries <- fresh
  end;
  t.entries.(used) <- e;
  t.size <- t.size + 1

let length t = t.size

let entry t i =
  if i < t.base || i >= t.size then
    invalid_arg
      (Printf.sprintf "Wal.entry: offset %d outside [%d, %d)" i t.base t.size);
  t.entries.(i - t.base)

let read_from t offset =
  (* A reader below the truncation point has lost records: silently clamping
     to [base] would make a propagator (or a recovery replay) skip entries
     without anyone noticing. Fail loudly instead. *)
  if offset < t.base then
    invalid_arg
      (Printf.sprintf "Wal.read_from: offset %d below truncation point %d"
         offset t.base);
  let rec collect i acc =
    if i >= t.size then (List.rev acc, t.size)
    else collect (i + 1) (entry t i :: acc)
  in
  collect offset []

let truncate_before t offset =
  let offset = min offset t.size in
  if offset > t.base then begin
    let keep = t.size - offset in
    let fresh = Array.make (max 16 keep) dummy in
    Array.blit t.entries (offset - t.base) fresh 0 keep;
    t.entries <- fresh;
    t.base <- offset
  end

(* Writesets up to this long are checked for a repeated key pair by pair,
   which allocates nothing; longer ones through a table, in linear time. *)
let short = 16

let rec has_key key = function
  | [] -> false
  | u :: rest -> String.equal u.key key || has_key key rest

let rec has_repeat = function
  | [] -> false
  | u :: rest -> has_key u.key rest || has_repeat rest

(* Each key's last update, emitted where its first write was and removed
   once emitted. *)
let keep_last last updates =
  List.filter_map
    (fun u ->
      match Hashtbl.find_opt last u.key with
      | None -> None
      | Some _ as kept ->
        Hashtbl.remove last u.key;
        kept)
    updates

let squash updates =
  if List.compare_length_with updates short <= 0 && not (has_repeat updates)
  then updates
  else begin
    let n = List.length updates in
    let last = Hashtbl.create n in
    List.iter (fun u -> Hashtbl.replace last u.key u) updates;
    if Hashtbl.length last = n then updates else keep_last last updates
  end

let pp_entry ppf = function
  | Start { txn; ts } -> Format.fprintf ppf "start(T%d)@%a" txn Timestamp.pp ts
  | Commit { txn; ts; updates; _ } ->
    Format.fprintf ppf "commit(T%d)@%a[%d updates]" txn Timestamp.pp ts
      (List.length updates)
  | Abort { txn; writes } -> Format.fprintf ppf "abort(T%d)[%d writes]" txn writes
