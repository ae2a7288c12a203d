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

(* [String.starts_with] without its per-call closure. *)
let rec same_from prefix key i =
  i = String.length prefix || (prefix.[i] = key.[i] && same_from prefix key (i + 1))

let has_prefix ~prefix key =
  String.length key >= String.length prefix && same_from prefix key 0

(* [Printf.sprintf "item:%06d" n], byte for byte: a number in [0, 10^6)
   writes its six digits into a copy of ["item:000000"], its only
   allocation. *)
let key_name n =
  if n < 0 || n >= 1_000_000 then Printf.sprintf "item:%06d" n
  else begin
    let b = Bytes.of_string "item:000000" and r = ref n in
    for i = 10 downto 5 do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!r mod 10)));
      r := !r / 10
    done;
    Bytes.unsafe_to_string b
  end

(* Names [key_name n] for [0 <= n < numbered] are numbered: the dictionary
   finds them through their number. The bound keeps a stray long name from
   sizing the number column. *)
let numbered = 1 lsl 20

(* The decimal [name] holds from [i] on, or -1 once it reaches [numbered]
   or meets a non-digit. *)
let rec decimal name i n =
  if n >= numbered then -1
  else if i = String.length name then n
  else
    match name.[i] with
    | '0' .. '9' as c -> decimal name (i + 1) ((10 * n) + Char.code c - 48)
    | _ -> -1

let key_number name =
  let len = String.length name in
  if len < 11 || (len > 11 && name.[5] = '0') || not (has_prefix ~prefix:"item:" name)
  then -1
  else decimal name 5 0

(* Every key a store sharing the dictionary installed, once: its name at a
   dense id. A numbered name finds its id in [numbers] (-1 when absent);
   any other through an open-addressed table whose entries pack the key's
   [String.hash] above its id ([empty] when free). Probing is linear, and
   the table starts at 8 slots and doubles once more than half of them
   hold the [hashed] names. *)
type keys = {
  mutable slots : int array;
  mutable hashed : int;
  numbers : int Column.t;
  names : string Column.t;
  mutable count : int;
}

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let empty = -1

let keys () =
  { slots = Array.make 8 empty; hashed = 0; numbers = Column.make (-1);
    names = Column.make ""; count = 0 }

(* The key's id, or [-1 - i] for the free slot [i] that ends its probe. *)
let rec probe d key h i =
  let e = d.slots.(i) in
  if e = empty then -1 - i
  else if e lsr id_bits = h && String.equal (Column.get d.names (e land id_mask)) key
  then e land id_mask
  else probe d key h ((i + 1) land (Array.length d.slots - 1))

let lookup d key h = probe d key h (h land (Array.length d.slots - 1))

let grow d =
  let slots = Array.make (2 * Array.length d.slots) empty in
  let mask = Array.length slots - 1 in
  let rec place e i =
    if slots.(i) = empty then slots.(i) <- e else place e ((i + 1) land mask)
  in
  Array.iter (fun e -> if e <> empty then place e ((e lsr id_bits) land mask)) d.slots;
  d.slots <- slots

let intern d key h =
  let n = key_number key in
  let r = if n >= 0 then Column.get d.numbers n else lookup d key h in
  if r >= 0 then r
  else begin
    let id = d.count in
    Column.set d.names id key;
    d.count <- id + 1;
    if n >= 0 then Column.set d.numbers n id
    else begin
      d.slots.(-1 - r) <- (h lsl id_bits) lor id;
      d.hashed <- d.hashed + 1;
      if 2 * d.hashed > Array.length d.slots then grow d
    end;
    id
  end

type t = {
  clock : Timestamp.source;
  keys : keys;
  (* Per key id, the newest version installed here ([ts] 0 when the key
     never was) and the chain of older ones, newest first. *)
  ts : Timestamp.t Column.t;
  value : string option Column.t;
  older : version Column.t;
  (* Committed keys in lexicographic order: prefix and range scans seek in
     O(log n) instead of folding over the whole store. Built from the
     installed ids by the first scan; after it, keys first installed since
     the last scan wait in [new_keys]. A store that is never scanned keeps
     neither. *)
  mutable indexed : bool;
  mutable key_set : Sset.t;
  mutable new_keys : string list;
  (* Stored versions across all keys, maintained incrementally so the
     monitor can sample it every virtual second at zero marginal cost. *)
  mutable versions : int;
  (* The ids whose chains hold two or more versions, each once: the only
     ones [vacuum] can trim. *)
  mutable multi : int list;
  log : Wal.t option;  (* only the primary's store has a log *)
  mutable next_txn_id : int;
  mutable digest : int;  (* every writeset installed, folded in order *)
  mutable commit_count : int;
  mutable latest_commit : Timestamp.t;
}

let create ?log ?(keys = keys ()) () =
  {
    clock = Timestamp.source ();
    keys;
    ts = Column.make Timestamp.zero;
    value = Column.make None;
    older = Column.make bottom;
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

let key_count t = t.keys.count

(* The key's id, or -1 when no store sharing the dictionary installed it:
   every column reads its fill there. *)
let find t key =
  let n = key_number key in
  if n >= 0 then Column.get t.keys.numbers n
  else Int.max (-1) (lookup t.keys key (String.hash key))

let find_number t n =
  if n < numbered then Column.get t.keys.numbers n else find t (key_name n)

let number_key t n =
  let id = find_number t n in
  if id < 0 then key_name n else Column.get t.keys.names id

let stored_key t key =
  let id = find t key in
  if id < 0 then key else Column.get t.keys.names id

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

(* Key [id]'s value at [at]: [None] also for a key never installed here. *)
let visible t id ~at =
  if Column.get t.ts id <= at then Column.get t.value id
  else visible_older (Column.get t.older id) ~at

let snapshot_read t ~at key = visible t (find t key) ~at

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

(* A transaction that wrote nothing reads the columns straight through the
   number; one that wrote may have written this key. *)
let read_number t txn n =
  require_active txn "read";
  match buffered txn with
  | [] -> visible t (find_number t n) ~at:txn.start_ts
  | _ :: _ -> read t txn (number_key t n)

(* The update keeps the dictionary's key string when some store holds the
   key, so the log and a run's history share it instead of keeping the
   writer's copy alive. *)
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
    if Column.get t.ts (find t key) > start_ts then Some key
    else first_committer_conflict t ~start_ts rest

(* Xor, then an odd multiplier: no later step cancels a differing input. *)
let mix d x = (d lxor x) * 0x100000001b3

let install t ~commit_ts updates =
  let apply { Wal.key; value } =
    let hash = String.hash key in
    t.digest <-
      mix (mix t.digest hash)
        (match value with Some v -> String.hash v | None -> -1);
    let id = intern t.keys key hash in
    let ts = Column.get t.ts id in
    if ts = Timestamp.zero then begin
      if t.indexed then t.new_keys <- Column.get t.keys.names id :: t.new_keys
    end
    else begin
      let older = Column.get t.older id in
      if older == bottom then t.multi <- id :: t.multi;
      Column.set t.older id
        { committed_at = ts; value = Column.get t.value id; below = older }
    end;
    Column.set t.ts id commit_ts;
    Column.set t.value id value;
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
  let acc = ref init in
  for id = 0 to t.keys.count - 1 do
    match visible t id ~at with
    | Some v -> acc := f !acc (Column.get t.keys.names id) v
    | None -> ()
  done;
  !acc

let state_at t ts =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (fold_visible t ~at:ts ~init:[] ~f:(fun acc key v -> (key, v) :: acc))

let committed_state t = state_at t t.latest_commit

(* States are compared key by key, never materialized: two states are equal
   exactly when they hold the same number of visible bindings and every
   binding of one reads the same value from the other. *)
let visible_count db ~at = fold_visible db ~at ~init:0 ~f:(fun n _ _ -> n + 1)

let same_state expected ~at actual =
  let actual_at = actual.latest_commit in
  let n = visible_count actual ~at:actual_at in
  n = visible_count expected ~at
  && n
     = fold_visible actual ~at:actual_at ~init:0 ~f:(fun matched key v ->
           match read_at expected at key with
           | Some v' when String.equal v v' -> matched + 1
           | Some _ | None -> matched)

(* Build the ordered index from the installed ids at the first scan; after
   that, fold in the keys installed since the last scan. *)
let sync_keys t =
  if not t.indexed then begin
    for id = 0 to t.keys.count - 1 do
      if Column.get t.ts id <> Timestamp.zero then
        t.key_set <- Sset.add (Column.get t.keys.names id) t.key_set
    done;
    t.indexed <- true
  end
  else if t.new_keys <> [] then begin
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
     at [before]. Only multi-version keys can lose anything, and a cut
     writes one slot or field, so only the filtered [multi] allocates. *)
  let trim reclaimed id =
    let older = Column.get t.older id in
    if Timestamp.compare (Column.get t.ts id) before <= 0 then begin
      Column.set t.older id bottom;
      reclaimed + chain_length older 0
    end
    else reclaimed + cut_below older ~before
  in
  let reclaimed = List.fold_left trim 0 t.multi in
  if reclaimed > 0 then
    t.multi <- List.filter (fun id -> Column.get t.older id != bottom) t.multi;
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

let restore ?keys data =
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
  let t = create ?keys () in
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
