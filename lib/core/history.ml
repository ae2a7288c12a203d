open Lsr_storage

type kind =
  | Read_only
  | Update

type fence_claim = {
  claim : Session.fence;
  read_at : float;  (* virtual time the fenced read resolved its horizon *)
}

type txn = {
  id : int;
  session : string;
  kind : kind;
  site : string;
  first_op : int;
  finished : int;
  snapshot : Timestamp.t;
  commit_ts : Timestamp.t option;
  read_keys : string array;
  read_values : string option array;
  writes : Wal.update list;
  fence : fence_claim option;
}

type t = {
  mutable events : int;
  mutable ids : int;
  mutable txns : txn list;  (* newest first *)
}

let create () = { events = 0; ids = 0; txns = [] }

let tick t =
  t.events <- t.events + 1;
  t.events

let now t = t.events

let fresh_id t =
  t.ids <- t.ids + 1;
  t.ids

let add t txn = t.txns <- txn :: t.txns

type reads = {
  mutable count : int;
  mutable keys : string array;
  mutable values : string option array;
}

let reads () = { count = 0; keys = [||]; values = [||] }

let serve r key value =
  let n = r.count in
  if n = Array.length r.keys then begin
    let capacity = max 4 (2 * n) in
    let keys = Array.make capacity "" and values = Array.make capacity None in
    Array.blit r.keys 0 keys 0 n;
    Array.blit r.values 0 values 0 n;
    r.keys <- keys;
    r.values <- values
  end;
  r.keys.(n) <- key;
  r.values.(n) <- value;
  r.count <- n + 1

let recorded ~key r =
  (Array.init r.count (fun i -> key r.keys.(i)), Array.sub r.values 0 r.count)

let fold_reads txn ~init ~f =
  let rec from i acc =
    if i = Array.length txn.read_keys then acc
    else from (i + 1) (f acc txn.read_keys.(i) txn.read_values.(i))
  in
  from 0 init

let transactions t = List.rev t.txns
let length t = List.length t.txns

let pp_txn ppf txn =
  Format.fprintf ppf "T%d[%s;%s;%s;ops %d..%d;snap %a%a%a]" txn.id txn.session
    (match txn.kind with Read_only -> "ro" | Update -> "up")
    txn.site txn.first_op txn.finished Timestamp.pp txn.snapshot
    (fun ppf -> function
      | None -> ()
      | Some ts -> Format.fprintf ppf ";commit %a" Timestamp.pp ts)
    txn.commit_ts
    (fun ppf -> function
      | None -> ()
      | Some f -> Format.fprintf ppf ";fence %a" Session.pp_fence f.claim)
    txn.fence
