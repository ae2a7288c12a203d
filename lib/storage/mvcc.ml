module Sset = Set.Make (String)

type version = { committed_at : Timestamp.t; value : string option }

type txn_state = Active | Committed_ | Aborted_

type txn = {
  id : int;
  start_ts : Timestamp.t;
  (* Buffered writes, newest-first; replayed in reverse for the log and the
     version store so that later writes to the same key win. *)
  mutable writes : Wal.update list;
  (* Latest buffered value per key, for read-your-writes. Allocated at the
     first write: most transactions only read. *)
  mutable writes_by_key : (string, string option) Hashtbl.t option;
  (* [effective_updates], kept once computed: the primary asks for the
     updates a commit installed. Reset by every write. *)
  mutable effective : Wal.update list option;
  mutable state : txn_state;
}

type abort_reason =
  | Write_conflict of string
  | Forced

type commit_result =
  | Committed of Timestamp.t
  | Aborted of abort_reason

(* One key: its newest version inline, the older ones newest first, and the
   next cell of its hash bucket. A read touches the bucket slot, the cell and
   the key bytes, and allocates nothing. *)
type cell = {
  key : string;
  hash : int;
  mutable ts : Timestamp.t;
  mutable value : string option;
  mutable older : version list;
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
    older = [];
    next = sentinel;
  }

type t = {
  name : string;
  clock : Timestamp.source;
  (* A chained hash table keyed on [String.hash] whose bucket nodes are the
     cells themselves; it doubles once [size > 2 * buckets], as
     [Stdlib.Hashtbl] does. *)
  mutable buckets : cell array;
  mutable size : int;
  (* Committed keys in lexicographic order: prefix and range scans seek in
     O(log n) instead of folding over the whole store. Built lazily: keys
     first installed since the last scan wait in [new_keys]. *)
  mutable key_set : Sset.t;
  mutable new_keys : string list;
  (* Stored versions across all keys, maintained incrementally so the
     monitor can sample it every virtual second at zero marginal cost. *)
  mutable versions : int;
  (* The cells whose chains hold two or more versions, each once: the only
     ones [vacuum] can trim. *)
  mutable multi : cell list;
  wal : Wal.t;
  mutable next_txn_id : int;
  (* Commit timestamps with the writes installed, newest first; the basis of
     the S^i state sequence. *)
  mutable commits : (Timestamp.t * Wal.update list) list;
  mutable commit_count : int;
  mutable latest_commit : Timestamp.t;
}

let create ?(name = "db") () =
  {
    name;
    clock = Timestamp.source ();
    buckets = Array.make 1024 sentinel;
    size = 0;
    key_set = Sset.empty;
    new_keys = [];
    versions = 0;
    multi = [];
    wal = Wal.create ();
    next_txn_id = 0;
    commits = [];
    commit_count = 0;
    latest_commit = Timestamp.zero;
  }

let name t = t.name
let wal t = t.wal

(* --- Key cells ---------------------------------------------------------------- *)

let rec find_in c h key =
  if c == sentinel || (c.hash = h && String.equal c.key key) then c
  else find_in c.next h key

let bucket t h = h land (Array.length t.buckets - 1)

(* The key's cell, or [sentinel] when the key was never installed. *)
let find t key =
  let h = String.hash key in
  find_in t.buckets.(bucket t h) h key

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
  t.buckets.(i) <- { key; hash; ts; value; older = []; next = t.buckets.(i) };
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t

let fold_cells f t init =
  let rec chain c acc = if c == sentinel then acc else chain c.next (f c acc) in
  Array.fold_left (fun acc c -> chain c acc) init t.buckets

let make_txn t start_ts =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  Wal.append t.wal (Wal.Start { txn = id; ts = start_ts });
  {
    id;
    start_ts;
    writes = [];
    writes_by_key = None;
    effective = None;
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
let start_ts txn = txn.start_ts

let require_active txn op =
  match txn.state with
  | Active -> ()
  | Committed_ | Aborted_ ->
    invalid_arg (Printf.sprintf "Mvcc.%s: transaction %d is not active" op txn.id)

(* The value of the newest version committed at or before [at]; [None] when
   that version is a delete or there is none. *)
let rec visible_older older ~at =
  match older with
  | [] -> None
  | v :: rest -> if v.committed_at <= at then v.value else visible_older rest ~at

let visible_value c ~at = if c.ts <= at then c.value else visible_older c.older ~at

let snapshot_read t ~at key = visible_value (find t key) ~at

let read t txn key =
  require_active txn "read";
  match txn.writes_by_key with
  | None -> snapshot_read t ~at:txn.start_ts key
  | Some own -> (
    match Hashtbl.find_opt own key with
    | Some value -> value
    | None -> snapshot_read t ~at:txn.start_ts key)

let write t txn key value =
  require_active txn "write";
  Wal.append t.wal (Wal.Update { txn = txn.id; update = { key; value } });
  txn.writes <- { Wal.key; value } :: txn.writes;
  txn.effective <- None;
  let own =
    match txn.writes_by_key with
    | Some own -> own
    | None ->
      let own = Hashtbl.create 8 in
      txn.writes_by_key <- Some own;
      own
  in
  Hashtbl.replace own key value

let first_committer_conflict t txn =
  (* A committed version newer than our snapshot on any written key means a
     concurrent transaction committed that write first. *)
  let conflicting key = (find t key).ts > txn.start_ts in
  match txn.writes_by_key with
  | None -> None
  | Some own ->
    Hashtbl.fold
      (fun key _ acc ->
        match acc with
        | Some _ -> acc
        | None -> if conflicting key then Some key else None)
      own None

let install t ~commit_ts updates =
  let apply { Wal.key; value } =
    let hash = String.hash key in
    let c = find_in t.buckets.(bucket t hash) hash key in
    if c == sentinel then begin
      add_cell t key ~hash ~ts:commit_ts value;
      t.new_keys <- key :: t.new_keys
    end
    else begin
      (match c.older with [] -> t.multi <- c :: t.multi | _ :: _ -> ());
      c.older <- { committed_at = c.ts; value = c.value } :: c.older;
      c.ts <- commit_ts;
      c.value <- value
    end;
    t.versions <- t.versions + 1
  in
  List.iter apply updates;
  t.commits <- (commit_ts, updates) :: t.commits;
  t.commit_count <- t.commit_count + 1;
  t.latest_commit <- commit_ts

(* One update per key in first-write order, with the last value written. *)
let effective_updates txn =
  match txn.effective with
  | Some updates -> updates
  | None ->
    let ordered = List.rev txn.writes in
    let repeats =
      match txn.writes_by_key with
      | Some own -> Hashtbl.length own < List.length ordered
      | None -> false
    in
    let updates = if repeats then Wal.squash ordered else ordered in
    txn.effective <- Some updates;
    updates

let commit t txn =
  require_active txn "commit";
  match first_committer_conflict t txn with
  | Some key ->
    txn.state <- Aborted_;
    Wal.append t.wal (Wal.Abort { txn = txn.id });
    Aborted (Write_conflict key)
  | None ->
    let commit_ts = Timestamp.next t.clock in
    install t ~commit_ts (effective_updates txn);
    txn.state <- Committed_;
    Wal.append t.wal (Wal.Commit { txn = txn.id; ts = commit_ts });
    Committed commit_ts

let abort t txn =
  require_active txn "abort";
  txn.state <- Aborted_;
  Wal.append t.wal (Wal.Abort { txn = txn.id })

let end_read _t txn =
  require_active txn "end_read";
  if txn.writes <> [] then
    invalid_arg "Mvcc.end_read: transaction has writes; commit or abort it";
  txn.state <- Committed_

let pending_writes txn = effective_updates txn
let written_keys txn = List.map (fun { Wal.key; _ } -> key) (effective_updates txn)

let latest_commit_ts t = t.latest_commit
let commit_count t = t.commit_count

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

(* Fold the keys installed since the last scan into the ordered index. *)
let sync_keys t =
  if t.new_keys <> [] then begin
    t.key_set <- Sset.union t.key_set (Sset.of_list t.new_keys);
    t.new_keys <- []
  end

let keys_from t start =
  sync_keys t;
  Sset.to_seq_from start t.key_set

let fold_keys t ~prefix ~init ~f =
  (* Keys are sorted, so every key with [prefix] sits in one contiguous run
     starting at the first key >= prefix: seek there and stop at the first
     non-match instead of folding over the whole store. *)
  let plen = String.length prefix in
  let matches key = String.length key >= plen && String.sub key 0 plen = prefix in
  let rec consume acc seq =
    match seq () with
    | Seq.Nil -> acc
    | Seq.Cons (key, rest) -> if matches key then consume (f acc key) rest else acc
  in
  consume init (keys_from t prefix)

let commit_history t = List.rev_map fst t.commits
let commits_with_updates t = List.rev t.commits

(* --- Maintenance ----------------------------------------------------------- *)

(* The number of versions older than the one visible at [before]. *)
let rec reclaimable ~before = function
  | [] -> 0
  | v :: rest ->
    if Timestamp.compare v.committed_at before <= 0 then List.length rest
    else reclaimable ~before rest

(* The older versions cut just below the one visible at [before]. *)
let keep_visible ~before older =
  let rec walk kept = function
    | [] -> List.rev kept
    | v :: rest ->
      if Timestamp.compare v.committed_at before <= 0 then List.rev (v :: kept)
      else walk (v :: kept) rest
  in
  walk [] older

let vacuum t ~before =
  (* Keep every version newer than [before] plus the single version visible
     at [before]. Only multi-version cells can lose anything, and a chain
     that loses nothing is left as it is. *)
  let trim reclaimed c =
    if Timestamp.compare c.ts before <= 0 then begin
      let n = List.length c.older in
      c.older <- [];
      reclaimed + n
    end
    else begin
      let n = reclaimable ~before c.older in
      if n > 0 then c.older <- keep_visible ~before c.older;
      reclaimed + n
    end
  in
  let reclaimed = List.fold_left trim 0 t.multi in
  if reclaimed > 0 then
    t.multi <-
      List.filter (fun c -> match c.older with [] -> false | _ :: _ -> true) t.multi;
  t.versions <- t.versions - reclaimed;
  reclaimed

let version_count t = t.versions

let encode_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let serialize t =
  let bindings = committed_state t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (string_of_int (List.length bindings));
  Buffer.add_char buf ';';
  List.iter
    (fun (key, value) ->
      encode_string buf key;
      encode_string buf value)
    bindings;
  Buffer.contents buf

let restore ?name data =
  let pos = ref 0 in
  let fail msg = failwith ("Mvcc.restore: " ^ msg) in
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
    | None -> fail "bad length"
  in
  let read_string () =
    let len = read_int_until ':' in
    if len < 0 || !pos + len > String.length data then fail "bad string length";
    let sub = String.sub data !pos len in
    pos := !pos + len;
    sub
  in
  let count = read_int_until ';' in
  if count < 0 then fail "negative count";
  let t = create ?name () in
  let txn = begin_txn t in
  for _ = 1 to count do
    let key = read_string () in
    let value = read_string () in
    write t txn key (Some value)
  done;
  if !pos <> String.length data then fail "trailing bytes";
  (match commit t txn with
  | Committed _ -> ()
  | Aborted _ -> fail "initial commit aborted");
  t
