module Sset = Set.Make (String)

(* An older version of a key, and the next older one below it: a chain ends
   at [bottom], so a version costs one block. *)
type version = {
  committed_at : Timestamp.t;
  value : string option;
  mutable below : version;
}

let rec bottom = { committed_at = Timestamp.zero; value = None; below = bottom }

type txn_state = Active | Committed_ | Aborted_

type txn = {
  id : int;
  start_ts : Timestamp.t;
  (* Writes buffered one at a time by [write], newest first. *)
  mutable writes : Wal.update list;
  (* The updates [commit] installs, one per key in first-write order: the
     writeset [write_all] handed over, which is then the only copy of the
     writes, or [Wal.squash] of [writes], kept once computed and reset by
     every [write]. *)
  mutable effective : Wal.update list option;
  (* Each written key's latest update, for read-your-writes on a long
     writeset: built at its first read, then kept up to date by [write]. *)
  mutable own : (string, Wal.update) Hashtbl.t option;
  mutable state : txn_state;
}

type abort_reason =
  | Write_conflict of string
  | Forced

type commit_result =
  | Committed of Timestamp.t
  | Aborted of abort_reason

(* One key: its newest version inline, the chain of older ones newest first,
   and the next cell of its hash bucket. A read touches the bucket slot, the
   cell and the key bytes, and allocates nothing. *)
type cell = {
  key : string;
  hash : int;
  mutable ts : Timestamp.t;
  mutable value : string option;
  mutable older : version;
  mutable next : cell;
}

(* Ends every bucket chain and stands for a missing key: its hash matches no
   [String.hash], and it reads as absent at every timestamp. *)
let rec sentinel =
  {
    key = "";
    hash = -1;
    ts = Timestamp.zero;
    value = None;
    older = bottom;
    next = sentinel;
  }

type t = {
  clock : Timestamp.source;
  (* A chained hash table keyed on [String.hash] whose bucket nodes are the
     cells themselves; it doubles once [size > 2 * buckets], as
     [Stdlib.Hashtbl] does. *)
  mutable buckets : cell array;
  mutable size : int;
  (* Committed keys in lexicographic order: prefix and range scans seek in
     O(log n) instead of folding over the whole store. Built from the cells
     by the first scan; after it, keys first installed since the last scan
     wait in [new_keys]. A store that is never scanned keeps neither. *)
  mutable indexed : bool;
  mutable key_set : Sset.t;
  mutable new_keys : string list;
  (* Stored versions across all keys, maintained incrementally so the
     monitor can sample it every virtual second at zero marginal cost. *)
  mutable versions : int;
  (* The cells whose chains hold two or more versions, each once: the only
     ones [vacuum] can trim. *)
  mutable multi : cell list;
  log : Wal.t option;  (* only the primary's store has a log *)
  mutable next_txn_id : int;
  mutable digest : int;  (* every writeset installed, folded in order *)
  mutable commit_count : int;
  mutable latest_commit : Timestamp.t;
}

let create ?log () =
  {
    clock = Timestamp.source ();
    buckets = Array.make 1024 sentinel;
    size = 0;
    indexed = false;
    key_set = Sset.empty;
    new_keys = [];
    versions = 0;
    multi = [];
    log;
    next_txn_id = 0;
    digest = 0;
    commit_count = 0;
    latest_commit = Timestamp.zero;
  }

let wal t =
  match t.log with
  | Some wal -> wal
  | None -> invalid_arg "Mvcc.wal: this store was created without a log"


(* --- Key cells ---------------------------------------------------------------- *)

let rec find_in c h key =
  if c == sentinel || (c.hash = h && String.equal c.key key) then c
  else find_in c.next h key

let bucket t h = h land (Array.length t.buckets - 1)

(* The key's cell, or [sentinel] when the key was never installed. *)
let find t key =
  let h = String.hash key in
  find_in t.buckets.(bucket t h) h key

let stored_key t key =
  let c = find t key in
  if c == sentinel then key else c.key

let resize t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) sentinel in
  let mask = Array.length buckets - 1 in
  let rec move c =
    if c != sentinel then begin
      let next = c.next in
      let i = c.hash land mask in
      c.next <- buckets.(i);
      buckets.(i) <- c;
      move next
    end
  in
  Array.iter move old;
  t.buckets <- buckets

(* A new cell for a key not in the store, holding one version. *)
let add_cell t key ~hash ~ts value =
  let i = bucket t hash in
  t.buckets.(i) <- { key; hash; ts; value; older = bottom; next = t.buckets.(i) };
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t;
  if t.indexed then t.new_keys <- key :: t.new_keys

let fold_cells f t init =
  let rec chain c acc = if c == sentinel then acc else chain c.next (f c acc) in
  Array.fold_left (fun acc c -> chain c acc) init t.buckets

let make_txn t start_ts =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  (match t.log with
  | Some wal -> Wal.append wal (Wal.Start { txn = id; ts = start_ts })
  | None -> ());
  {
    id;
    start_ts;
    writes = [];
    effective = None;
    own = None;
    state = Active;
  }

let begin_txn t = make_txn t (Timestamp.next t.clock)

let begin_txn_at t ~snapshot =
  if Timestamp.compare snapshot (Timestamp.current t.clock) > 0 then
    invalid_arg "Mvcc.begin_txn_at: snapshot is in the future";
  (* The clock still advances so commit timestamps stay unique and larger
     than every issued timestamp; only the snapshot is taken in the past. *)
  ignore (Timestamp.next t.clock);
  make_txn t snapshot

let txn_id txn = txn.id
let next_txn_id t = t.next_txn_id
let start_ts txn = txn.start_ts

let require_active txn op =
  match txn.state with
  | Active -> ()
  | Committed_ | Aborted_ ->
    invalid_arg (Printf.sprintf "Mvcc.%s: transaction %d is not active" op txn.id)

(* The value of the newest version committed at or before [at]; [None] when
   that version is a delete or there is none. *)
let rec visible_older v ~at =
  if v == bottom then None
  else if v.committed_at <= at then v.value
  else visible_older v.below ~at

let visible_value c ~at = if c.ts <= at then c.value else visible_older c.older ~at

let snapshot_read t ~at key = visible_value (find t key) ~at

(* Everything buffered, each key's latest write ahead of its older ones:
   [writes], or a writeset handed over whole (one update per key). *)
let buffered txn =
  match (txn.writes, txn.effective) with
  | [], Some whole -> whole
  | writes, _ -> writes

(* Stands for "the transaction has not written this key". *)
let no_write = { Wal.key = ""; value = None }

let rec find_write key = function
  | [] -> no_write
  | u :: rest -> if String.equal u.Wal.key key then u else find_write key rest

(* Writesets up to this long are scanned for a key; longer ones get a
   table at their first read. *)
let short = 16

(* The transaction's latest write of [key], or [no_write]. Scanning a short
   writeset allocates nothing. *)
let rec own_write txn key =
  match txn.own with
  | Some own -> ( try Hashtbl.find own key with Not_found -> no_write)
  | None ->
    let writes = buffered txn in
    if List.compare_length_with writes short <= 0 then find_write key writes
    else begin
      let own = Hashtbl.create 64 in
      List.iter
        (fun u -> if not (Hashtbl.mem own u.Wal.key) then Hashtbl.add own u.Wal.key u)
        writes;
      txn.own <- Some own;
      own_write txn key
    end

let read t txn key =
  require_active txn "read";
  let own = own_write txn key in
  if own == no_write then snapshot_read t ~at:txn.start_ts key else own.value

(* The update keeps the store's own key string when the store holds the key,
   so the log and a run's history share it instead of keeping the writer's
   copy alive. *)
let write t txn key value =
  require_active txn "write";
  let update = { Wal.key = stored_key t key; value } in
  (match (txn.writes, txn.effective) with
  | [], Some whole -> txn.writes <- List.rev whole (* written whole so far *)
  | _ -> ());
  txn.writes <- update :: txn.writes;
  txn.effective <- None;
  match txn.own with Some own -> Hashtbl.replace own key update | None -> ()

let write_all _t txn updates =
  require_active txn "write_all";
  if buffered txn <> [] then
    invalid_arg
      (Printf.sprintf "Mvcc.write_all: transaction %d has written already" txn.id);
  txn.effective <- Some updates

(* The first key of [updates] that a transaction committed after [start_ts]
   wrote: that transaction committed its write first. *)
let rec first_committer_conflict t ~start_ts = function
  | [] -> None
  | { Wal.key; _ } :: rest ->
    if (find t key).ts > start_ts then Some key
    else first_committer_conflict t ~start_ts rest

(* Xor, then an odd multiplier: no later step cancels a differing input. *)
let mix d x = (d lxor x) * 0x100000001b3

let install t ~commit_ts updates =
  let apply { Wal.key; value } =
    let hash = String.hash key in
    t.digest <-
      mix (mix t.digest hash)
        (match value with Some v -> String.hash v | None -> -1);
    let c = find_in t.buckets.(bucket t hash) hash key in
    if c == sentinel then add_cell t key ~hash ~ts:commit_ts value
    else begin
      if c.older == bottom then t.multi <- c :: t.multi;
      c.older <- { committed_at = c.ts; value = c.value; below = c.older };
      c.ts <- commit_ts;
      c.value <- value
    end;
    t.versions <- t.versions + 1
  in
  List.iter apply updates;
  t.digest <- mix t.digest (-2);
  t.commit_count <- t.commit_count + 1;
  t.latest_commit <- commit_ts

let effective_updates txn =
  match txn.effective with
  | Some updates -> updates
  | None ->
    let updates = Wal.squash (List.rev txn.writes) in
    txn.effective <- Some updates;
    updates

(* An entry is built only when there is a log to append it to. *)
let mark_aborted t txn =
  txn.state <- Aborted_;
  match t.log with
  | Some wal ->
    Wal.append wal
      (Wal.Abort { txn = txn.id; writes = List.length (buffered txn) })
  | None -> ()

let commit t txn =
  require_active txn "commit";
  let updates = effective_updates txn in
  match first_committer_conflict t ~start_ts:txn.start_ts updates with
  | Some key ->
    mark_aborted t txn;
    Aborted (Write_conflict key)
  | None ->
    let commit_ts = Timestamp.next t.clock in
    install t ~commit_ts updates;
    txn.state <- Committed_;
    (match t.log with
    | Some wal ->
      Wal.append wal
        (Wal.Commit { txn = txn.id; ts = commit_ts; updates; digest = t.digest })
    | None -> ());
    Committed commit_ts

let abort t txn =
  require_active txn "abort";
  mark_aborted t txn

let end_read _t txn =
  require_active txn "end_read";
  if buffered txn <> [] then
    invalid_arg "Mvcc.end_read: transaction has writes; commit or abort it";
  txn.state <- Committed_

let pending_writes txn = effective_updates txn
let written_keys txn = List.map (fun { Wal.key; _ } -> key) (effective_updates txn)

let latest_commit_ts t = t.latest_commit
let commit_count t = t.commit_count
let digest t = t.digest

let read_at t ts key = snapshot_read t ~at:ts key

let fold_visible t ~at ~init ~f =
  fold_cells
    (fun c acc ->
      match visible_value c ~at with Some v -> f acc c.key v | None -> acc)
    t init

let state_at t ts =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (fold_visible t ~at:ts ~init:[] ~f:(fun acc key v -> (key, v) :: acc))

let committed_state t = state_at t t.latest_commit

(* Build the ordered index from the cells at the first scan; after that, fold
   in the keys installed since the last scan. *)
let sync_keys t =
  if not t.indexed then begin
    t.key_set <- Sset.of_list (fold_cells (fun c keys -> c.key :: keys) t []);
    t.indexed <- true
  end
  else if t.new_keys <> [] then begin
    t.key_set <- Sset.union t.key_set (Sset.of_list t.new_keys);
    t.new_keys <- []
  end

let keys_from t start =
  sync_keys t;
  Sset.to_seq_from start t.key_set

(* [String.starts_with] without its per-call closure. *)
let rec same_from prefix key i =
  i = String.length prefix || (prefix.[i] = key.[i] && same_from prefix key (i + 1))

let has_prefix ~prefix key =
  String.length key >= String.length prefix && same_from prefix key 0

let fold_keys t ~prefix ~init ~f =
  (* Keys are sorted, so every key with [prefix] sits in one contiguous run
     starting at the first key >= prefix: seek there and stop at the first
     non-match instead of folding over the whole store. *)
  let rec consume acc seq =
    match seq () with
    | Seq.Nil -> acc
    | Seq.Cons (key, rest) ->
      if has_prefix ~prefix key then consume (f acc key) rest else acc
  in
  consume init (keys_from t prefix)

(* --- Maintenance ----------------------------------------------------------- *)

let rec chain_length v n = if v == bottom then n else chain_length v.below (n + 1)

(* Cut a chain just below its newest version committed at or before
   [before], the one visible there, and return how many versions the cut
   drops. *)
let rec cut_below v ~before =
  if v == bottom then 0
  else if Timestamp.compare v.committed_at before <= 0 then begin
    let n = chain_length v.below 0 in
    if n > 0 then v.below <- bottom;
    n
  end
  else cut_below v.below ~before

let vacuum t ~before =
  (* Keep every version newer than [before] plus the single version visible
     at [before]. Only multi-version cells can lose anything, and a cut
     writes one field, so only the filtered [multi] allocates. *)
  let trim reclaimed c =
    if Timestamp.compare c.ts before <= 0 then begin
      let n = chain_length c.older 0 in
      c.older <- bottom;
      reclaimed + n
    end
    else reclaimed + cut_below c.older ~before
  in
  let reclaimed = List.fold_left trim 0 t.multi in
  if reclaimed > 0 then t.multi <- List.filter (fun c -> c.older != bottom) t.multi;
  t.versions <- t.versions - reclaimed;
  reclaimed

let version_count t = t.versions

let encode_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

exception Malformed_backup of string

let serialize t =
  let bindings = committed_state t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (string_of_int t.digest);
  Buffer.add_char buf ';';
  Buffer.add_string buf (string_of_int (List.length bindings));
  Buffer.add_char buf ';';
  List.iter
    (fun (key, value) ->
      encode_string buf key;
      encode_string buf value)
    bindings;
  Buffer.contents buf

let restore data =
  let pos = ref 0 in
  let fail msg = raise (Malformed_backup msg) in
  let read_until ch =
    match String.index_from_opt data !pos ch with
    | None -> fail "missing delimiter"
    | Some i ->
      let sub = String.sub data !pos (i - !pos) in
      pos := i + 1;
      sub
  in
  let read_int_until ch =
    match int_of_string_opt (read_until ch) with
    | Some i -> i
    | None -> fail "bad number"
  in
  let read_string () =
    let len = read_int_until ':' in
    if len < 0 || !pos + len > String.length data then fail "bad string length";
    let sub = String.sub data !pos len in
    pos := !pos + len;
    sub
  in
  let digest = read_int_until ';' in
  let count = read_int_until ';' in
  if count < 0 then fail "negative count";
  let t = create () in
  let txn = begin_txn t in
  for _ = 1 to count do
    let key = read_string () in
    let value = read_string () in
    write t txn key (Some value)
  done;
  if !pos <> String.length data then fail "trailing bytes";
  ignore (commit t txn);
  (* The copy goes on from the chain of the store it copies. *)
  t.digest <- digest;
  t
