open Lsr_storage

type kind =
  | Read_only
  | Update

type fence_claim = {
  claim : Session.fence;
  read_at : float;  (* virtual time the fenced read resolved its horizon *)
}

(* One slot per transaction in each column but [keys] and [values], which
   hold one per read; [read_stop] ends a transaction's reads. *)
type t = {
  mutable events : int;
  mutable ids : int;
  mutable length : int;
  id : int Column.t;
  first_op : int Column.t;
  finished : int Column.t;
  snapshot : Timestamp.t Column.t;
  commit : int Column.t;  (* a timestamp, [aborted] or [read_only] *)
  read_stop : int Column.t;
  session : string Column.t;
  site : string Column.t;
  fence : fence_claim option Column.t;
  writes : Wal.update list Column.t;
  keys : string Column.t;
  values : string option Column.t;
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

let create () =
  let ints () = Column.make 0 in
  { events = 0; ids = 0; length = 0; id = ints (); first_op = ints ();
    finished = ints (); snapshot = ints (); commit = ints ();
    read_stop = ints (); session = Column.make ""; site = Column.make "";
    fence = Column.make None; writes = Column.make []; keys = Column.make "";
    values = Column.make None }

let tick t =
  t.events <- t.events + 1;
  t.events

let now t = t.events

let fresh_id t =
  t.ids <- t.ids + 1;
  t.ids

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

let aborted = -1
let read_only = -2
let get = Column.get
let read_start t i = if i = 0 then 0 else get t.read_stop (i - 1)

let add t ~key ~id ~session ~site ~first_op ~finished ~snapshot ~commit
    ~writes ~fence (r : reads) =
  if commit < read_only then invalid_arg "History.add: commit";
  let i = t.length in
  let n = read_start t i in
  Column.set t.commit i commit;
  Column.set t.id i id;
  Column.set t.first_op i first_op;
  Column.set t.finished i finished;
  Column.set t.snapshot i snapshot;
  Column.set t.session i session;
  Column.set t.site i site;
  Column.set t.fence i fence;
  Column.set t.writes i writes;
  for j = 0 to r.count - 1 do
    Column.set t.keys (n + j) (key r.keys.(j));
    Column.set t.values (n + j) r.values.(j)
  done;
  Column.set t.read_stop i (n + r.count);
  t.length <- i + 1

let load_reads (t : t) i r =
  r.count <- 0;
  for j = read_start t i to get t.read_stop i - 1 do
    serve r (get t.keys j) (get t.values j)
  done

let fold_reads txn ~init ~f =
  let rec from i acc =
    if i = Array.length txn.read_keys then acc
    else from (i + 1) (f acc txn.read_keys.(i) txn.read_values.(i))
  in
  from 0 init

let transactions t =
  let r = reads () in
  List.init t.length (fun i ->
      let c = get t.commit i in
      load_reads t i r;
      { id = get t.id i; session = get t.session i;
        kind = (if c = read_only then Read_only else Update);
        site = get t.site i; first_op = get t.first_op i;
        finished = get t.finished i; snapshot = get t.snapshot i;
        commit_ts = (if c >= 0 then Some c else None);
        read_keys = Array.sub r.keys 0 r.count;
        read_values = Array.sub r.values 0 r.count;
        writes = get t.writes i; fence = get t.fence i })

let length t = t.length

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
