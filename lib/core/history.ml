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

let reads_of_list ?(key = Fun.id) = function
  | [] -> ([||], [||])
  | reads ->
    let n = List.length reads in
    let keys = Array.make n "" and values = Array.make n None in
    List.iteri
      (fun i (k, v) ->
        keys.(i) <- key k;
        values.(i) <- v)
      reads;
    (keys, values)

let fold_reads txn ~init ~f =
  let rec from i acc =
    if i = Array.length txn.read_keys then acc
    else from (i + 1) (f acc txn.read_keys.(i) txn.read_values.(i))
  in
  from 0 init

let read_list txn =
  List.init (Array.length txn.read_keys) (fun i ->
      (txn.read_keys.(i), txn.read_values.(i)))

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
