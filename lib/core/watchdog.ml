open Lsr_storage
module Json = Lsr_obs.Json

type level = Session.level = All_sessions | In_session | After_update

type alert_kind =
  | Read_mismatch of {
      key : string;
      observed : string option;
      expected : string option;
    }
  | Inversion of { level : level; earlier : int; floor : Timestamp.t }
  | Fence_violation of { detail : string }

type alert = {
  at : float;
  txn : int;
  session : string;
  site : string;
  snapshot : Timestamp.t;
  kind : alert_kind;
}

type verdict = {
  read_mismatches : int;
  v_inversions_all : int;
  v_inversions_in_session : int;
  v_inversions_after_update : int;
  fence_failures : int;
  alerts_total : int;
  alerts_dropped : int;
}

module Sessions = Hashtbl.Make (String)

(* Versions live in a ring of chunks of [chunk_slots] slots, numbered in
   commit order. Slot [j] of a chunk holds its version's commit timestamp,
   the number of its key's previous version (-1 for none) and its key id
   at [meta.(3 * j)], [+ 1] and [+ 2], and its value at [values.(j)]. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

type chunk = { meta : int array; values : string option array }

(* Stands in the ring for a chunk not installed, and for no spare. *)
let no_chunk = { meta = [||]; values = [||] }

(* A key table entry packs the key's hash above its id. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let free = -1

(* One session's floors, each a timestamp with -1 for none: the maximal
   state pinned by its finished committed transactions and by its updates
   alone (the PCSI floor), each with its witness, and its fence floor.
   [holders] counts the in-flight tokens that will raise them, so a sweep
   never drops a record a token still holds. *)
type session = {
  name : string;
  mutable sess_ts : int;
  mutable sess_id : int;
  mutable upd_ts : int;
  mutable upd_id : int;
  mutable fence_ts : int;
  mutable holders : int;
}

let new_session name =
  { name; sess_ts = -1; sess_id = -1; upd_ts = -1; upd_id = -1; fence_ts = -1;
    holders = 0 }

(* The floors captured at the transaction's first operation, and the
   session record its end raises. *)
type token = {
  tk_session : session;
  tk_global : int;
  tk_global_id : int;
  tk_sess : int;
  tk_sess_id : int;
  tk_upd : int;
  tk_upd_id : int;
  tk_fence : int;
}

let no_session = new_session ""

let unwatched =
  { tk_session = no_session; tk_global = -1; tk_global_id = -1; tk_sess = -1;
    tk_sess_id = -1; tk_upd = -1; tk_upd_id = -1; tk_fence = -1 }

(* Alerts the log retains; the per-kind counters stay exact past it. *)
let alert_cap = 256

type t = {
  forbidden : level option;  (* the guarantee's forbidden inversion level *)
  flight : Lsr_obs.Flight.t;
  clock : Session.clock option;
  (* Weak-SI state. Every key ever written has a dense id of the
     watchdog's own, found through [slots], an open-addressed table whose
     entries pack the key's [String.hash] above its id ([free] when free),
     probed linearly and doubled once half full. Per id: its name, the
     folded base value of its retired versions, and the number of its
     newest live version (-1 when none). *)
  mutable slots : int array;
  names : string Column.t;
  base : string option Column.t;
  newest : int Column.t;
  mutable keys : int;
  (* Live versions are the numbers [first, next), in [ring]'s chunks: the
     chunk of version [v] is at [(v lsr chunk_bits) land (length - 1)].
     Every number below [first] is retired. [commits] counts the commits
     that still hold a live version; a chunk that retirement empties is
     kept as the [spare] for the next chunk needed. *)
  mutable ring : chunk array;
  mutable spare : chunk;
  mutable first : int;
  mutable next : int;
  mutable commits : int;
  mutable last_commit_ts : Timestamp.t;
  (* Inversion floors: maximal pinned state with its witness, globally and
     per session, and how many session floors are set. *)
  mutable global_ts : int;
  mutable global_id : int;
  sessions : session Sessions.t;
  mutable floors : int;
  mutable floors_swept_at : int;
  mutable tokens : int;  (* obtained and not yet consumed *)
  mutable horizon : Timestamp.t;
  (* Alerts: newest-first bounded log plus exact counters, the inversion
     counters at every level. *)
  mutable alert_log : alert list;
  mutable alert_log_len : int;
  mutable n_alerts : int;
  mutable n_read : int;
  mutable n_inv_all : int;
  mutable n_inv_sess : int;
  mutable n_inv_upd : int;
  mutable n_fence : int;
  mutable peak : int;
}

let create ?(flight = Lsr_obs.Flight.null) ?clock ~guarantee () =
  {
    forbidden = Session.forbidden_level guarantee;
    flight;
    clock;
    slots = Array.make 8 free;
    names = Column.make "";
    base = Column.make None;
    newest = Column.make (-1);
    keys = 0;
    ring = [| no_chunk |];
    spare = no_chunk;
    first = 0;
    next = 0;
    commits = 0;
    last_commit_ts = Timestamp.zero;
    global_ts = -1;
    global_id = -1;
    sessions = Sessions.create 64;
    floors = 0;
    floors_swept_at = 0;
    tokens = 0;
    horizon = Timestamp.zero;
    alert_log = [];
    alert_log_len = 0;
    n_alerts = 0;
    n_read = 0;
    n_inv_all = 0;
    n_inv_sess = 0;
    n_inv_upd = 0;
    n_fence = 0;
    peak = 0;
  }

let live_versions t = t.next - t.first
let retired_versions t = t.first
let state_size t = live_versions t + t.commits + t.floors + t.tokens
let peak_state t = t.peak
let horizon t = t.horizon

let note_state t =
  let s = state_size t in
  if s > t.peak then t.peak <- s

(* --- Key table ---------------------------------------------------------------- *)

(* The key's id, or [-1 - i] for the free slot [i] that ends its probe.
   A read usually passes the very string its key was written with, the
   store's own, so physical equality settles most compares. *)
let rec probe t key h i =
  let e = t.slots.(i) in
  if e = free then -1 - i
  else if
    e lsr id_bits = h
    &&
    let name = Column.get t.names (e land id_mask) in
    name == key || String.equal name key
  then e land id_mask
  else probe t key h ((i + 1) land (Array.length t.slots - 1))

let lookup t key h = probe t key h (h land (Array.length t.slots - 1))

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) free in
  let mask = Array.length slots - 1 in
  let rec place e i =
    if slots.(i) = free then slots.(i) <- e else place e ((i + 1) land mask)
  in
  Array.iter (fun e -> if e <> free then place e ((e lsr id_bits) land mask)) t.slots;
  t.slots <- slots

(* The key's id, numbered next when the key is new. *)
let intern t key =
  let h = String.hash key in
  let r = lookup t key h in
  if r >= 0 then r
  else begin
    let id = t.keys in
    t.slots.(-1 - r) <- (h lsl id_bits) lor id;
    Column.set t.names id key;
    t.keys <- id + 1;
    if 2 * t.keys > Array.length t.slots then grow_slots t;
    id
  end

(* --- Version ring -------------------------------------------------------------- *)

let chunk_of t v = t.ring.((v lsr chunk_bits) land (Array.length t.ring - 1))
let ts_at t v = (chunk_of t v).meta.(3 * (v land chunk_mask))

(* Installs the chunk of version [v], the first of its chunk: the spare if
   there is one, after doubling the ring when the live chunks fill it. *)
let install_chunk t v =
  let k = v lsr chunk_bits and len = Array.length t.ring in
  let lo = t.first lsr chunk_bits in
  if k - lo >= len then begin
    let ring = Array.make (2 * len) no_chunk in
    for c = lo to k - 1 do
      ring.(c land ((2 * len) - 1)) <- t.ring.(c land (len - 1))
    done;
    t.ring <- ring
  end;
  let c =
    if t.spare != no_chunk then t.spare
    else
      { meta = Array.make (3 * chunk_slots) 0;
        values = Array.make chunk_slots None }
  in
  t.spare <- no_chunk;
  t.ring.(k land (Array.length t.ring - 1)) <- c

(* Appends [key]'s version at [ts] as the newest live one. *)
let add_version t ts key value =
  let id = intern t key and v = t.next in
  if v land chunk_mask = 0 then install_chunk t v;
  let c = chunk_of t v and j = v land chunk_mask in
  c.meta.(3 * j) <- ts;
  c.meta.((3 * j) + 1) <- Column.get t.newest id;
  c.meta.((3 * j) + 2) <- id;
  c.values.(j) <- value;
  Column.set t.newest id v;
  t.next <- v + 1

(* Folds the oldest live version into its key's base; the last version of
   its commit ends the commit, and the last of its chunk makes the chunk
   the spare. *)
let retire_first t =
  let v = t.first in
  let c = chunk_of t v and j = v land chunk_mask in
  let ts = c.meta.(3 * j) and id = c.meta.((3 * j) + 2) in
  Column.set t.base id c.values.(j);
  c.values.(j) <- None;
  (* release the value for the GC *)
  if Column.get t.newest id = v then Column.set t.newest id (-1);
  t.first <- v + 1;
  if t.first = t.next || ts_at t t.first <> ts then t.commits <- t.commits - 1;
  if t.first land chunk_mask = 0 then begin
    t.ring.((v lsr chunk_bits) land (Array.length t.ring - 1)) <- no_chunk;
    t.spare <- c
  end

(* --- Rendering -------------------------------------------------------------- *)

let level_name = function
  | All_sessions -> "all-sessions"
  | In_session -> "in-session"
  | After_update -> "after-update"

let value_str = function Some v -> v | None -> "<none>"

let pp_kind ppf = function
  | Read_mismatch { key; observed; expected } ->
    Format.fprintf ppf "read %s = %s but primary state has %s" key
      (value_str observed) (value_str expected)
  | Inversion { level; earlier; floor } ->
    Format.fprintf ppf "inversion (%s): snapshot behind txn %d's state %a"
      (level_name level) earlier Timestamp.pp floor
  | Fence_violation { detail } -> Format.fprintf ppf "fence violated: %s" detail

let pp_body ppf a =
  Format.fprintf ppf "txn %d (session %s at %s, snapshot %a): %a" a.txn
    a.session a.site Timestamp.pp a.snapshot pp_kind a.kind

let pp_alert ppf a = Format.fprintf ppf "[%.3f] %a" a.at pp_body a
let pp_replayed ppf a = Format.fprintf ppf "[tick %.0f] %a" a.at pp_body a

(* --- Alerts ----------------------------------------------------------------- *)

(* A violation of the promised guarantee: counted, logged while the log has
   room, and the first one triggers the flight recorder's capture. *)
let record_alert t ~at ~txn ~session ~site ~snapshot kind =
  (match kind with
  | Read_mismatch _ -> t.n_read <- t.n_read + 1
  | Inversion _ -> ()
  | Fence_violation _ -> t.n_fence <- t.n_fence + 1);
  t.n_alerts <- t.n_alerts + 1;
  if t.alert_log_len < alert_cap then begin
    let alert = { at; txn; session; site; snapshot; kind } in
    t.alert_log <- alert :: t.alert_log;
    t.alert_log_len <- t.alert_log_len + 1;
    if t.n_alerts = 1 && Lsr_obs.Flight.enabled t.flight then
      let txns =
        match kind with
        | Inversion { earlier; _ } -> [ txn; earlier ]
        | Read_mismatch _ | Fence_violation _ -> [ txn ]
      in
      Lsr_obs.Flight.trigger t.flight ~reason:"watchdog"
        ~detail:(Format.asprintf "%a" pp_alert alert)
        ~txns ()
  end

(* --- Floors ----------------------------------------------------------------- *)

(* Raise a floor, keeping the earlier witness on equal timestamps: among the
   transactions that pinned the highest state, the first to finish. *)
let bump_global t ts id =
  if ts > t.global_ts then begin
    t.global_ts <- ts;
    t.global_id <- id
  end

(* A session floor is raised from [old]; from none, it is one more floor. *)
let raised t old ts =
  if old < 0 then t.floors <- t.floors + 1;
  ts

let bump_session t s ts id =
  if ts > s.sess_ts then begin
    s.sess_ts <- raised t s.sess_ts ts;
    s.sess_id <- id
  end

let bump_update t s ts id =
  if ts > s.upd_ts then begin
    s.upd_ts <- raised t s.upd_ts ts;
    s.upd_id <- id
  end

let bump_fence t s ts =
  if ts > s.fence_ts then s.fence_ts <- raised t s.fence_ts ts

(* Session floors at or below the horizon can never fire again: any future
   transaction's snapshot is at least the horizon at its own first operation
   (a read's snapshot is its site's seq(DBsec) >= the min over sites; an
   update's snapshot is the primary's newest commit >= every retired one).
   Sweeping them keeps the table O(sessions active in the window). *)
let sweep_floors t =
  if t.floors >= 64 && t.floors >= 2 * t.floors_swept_at then begin
    let drop ts =
      if ts < 0 || ts > t.horizon then ts else (t.floors <- t.floors - 1; -1)
    in
    Sessions.filter_map_inplace
      (fun _ s ->
        s.sess_ts <- drop s.sess_ts;
        s.upd_ts <- drop s.upd_ts;
        s.fence_ts <- drop s.fence_ts;
        if s.holders = 0 && s.sess_ts < 0 && s.upd_ts < 0 && s.fence_ts < 0
        then None
        else Some s)
      t.sessions;
    t.floors_swept_at <- t.floors
  end

(* --- Retirement ------------------------------------------------------------- *)

(* Folds every version at or below [h] into its key's base, oldest first; a
   commit's versions share its timestamp. *)
let retire_below t h =
  if h > t.horizon then t.horizon <- h;
  while t.first < t.next && ts_at t t.first <= h do
    retire_first t
  done;
  sweep_floors t

(* --- Event stream ----------------------------------------------------------- *)

let begin_txn t ~session =
  let s =
    match Sessions.find t.sessions session with
    | s -> s
    | exception Not_found ->
      let s = new_session session in
      Sessions.add t.sessions session s;
      s
  in
  s.holders <- s.holders + 1;
  t.tokens <- t.tokens + 1;
  {
    tk_session = s;
    tk_global = t.global_ts;
    tk_global_id = t.global_id;
    tk_sess = s.sess_ts;
    tk_sess_id = s.sess_id;
    tk_upd = s.upd_ts;
    tk_upd_id = s.upd_id;
    tk_fence = s.fence_ts;
  }


(* The value of key [id]'s newest live version at or below [snapshot],
   walking down from its version [v], else the key's folded base
   (everything retired is at or below the horizon, hence visible). *)
let rec visible_value t id v snapshot =
  if v < t.first then Column.get t.base id
  else
    let c = chunk_of t v and j = v land chunk_mask in
    if c.meta.(3 * j) <= snapshot then c.values.(j)
    else visible_value t id c.meta.((3 * j) + 1) snapshot

(* Expected value of [key] in primary state S@[snapshot], absent for a key
   never written. Only called with [snapshot >= horizon at the reader's
   first operation], which the caller's horizon guarantees: it never passes
   an open transaction's snapshot. *)
let expected_value t key snapshot =
  let id = lookup t key (String.hash key) in
  if id < 0 then None else visible_value t id (Column.get t.newest id) snapshot

let rec wrote key = function
  | [] -> false
  | { Wal.key = k; _ } :: ws -> String.equal k key || wrote key ws

let validate_reads t ~at ~txn ~session ~site ~snapshot ~own_writes
    (reads : History.reads) =
  for i = 0 to reads.count - 1 do
    let key = reads.keys.(i) and observed = reads.values.(i) in
    if not (wrote key own_writes) then begin
      let expected = expected_value t key snapshot in
      if not (Option.equal String.equal expected observed) then
        record_alert t ~at ~txn ~session ~site ~snapshot
          (Read_mismatch { key; observed; expected })
    end
  done

(* An inversion at every level bumps that level's count; only one at the
   forbidden level is an alert. A floor of -1 is none. *)
let check_level t tok ~at ~txn ~site ~snapshot level floor earlier =
  if snapshot < floor then begin
    (match level with
    | All_sessions -> t.n_inv_all <- t.n_inv_all + 1
    | In_session -> t.n_inv_sess <- t.n_inv_sess + 1
    | After_update -> t.n_inv_upd <- t.n_inv_upd + 1);
    match t.forbidden with
    | Some forbidden when forbidden = level ->
      record_alert t ~at ~txn ~session:tok.tk_session.name ~site ~snapshot
        (Inversion { level; earlier; floor })
    | Some _ | None -> ()
  end

let check_inversions t tok ~at ~txn ~site ~snapshot =
  check_level t tok ~at ~txn ~site ~snapshot All_sessions tok.tk_global
    tok.tk_global_id;
  check_level t tok ~at ~txn ~site ~snapshot In_session tok.tk_sess
    tok.tk_sess_id;
  check_level t tok ~at ~txn ~site ~snapshot After_update tok.tk_upd
    tok.tk_upd_id

let check_fence t tok ~at ~txn ~site ~snapshot fence =
  match fence with
  | None -> ()
  | Some { History.claim; read_at } ->
    let violation detail =
      record_alert t ~at ~txn ~session:tok.tk_session.name ~site ~snapshot
        (Fence_violation { detail })
    in
    (match claim with
    | Session.Exact ts ->
      if Timestamp.compare snapshot ts < 0 then
        violation
          (Format.asprintf "snapshot %a < exact fence %a" Timestamp.pp snapshot
             Timestamp.pp ts)
    | Session.Session_seq ->
      if snapshot < tok.tk_fence then
        violation
          (Format.asprintf "snapshot %a < session fence floor %a" Timestamp.pp
             snapshot Timestamp.pp tok.tk_fence)
    | Session.Max_age d -> (
      match t.clock with
      | None ->
        violation
          (Format.asprintf "Max_age %g claim but no commit clock to audit it" d)
      | Some c ->
        (* Safe to resolve now: the cutoff precedes the read, so commits
           appended to the clock after this instant cannot affect it. *)
        let hor = Session.clock_horizon c ~cutoff:(read_at -. d) in
        if Timestamp.compare snapshot hor < 0 then
          violation
            (Format.asprintf
               "snapshot %a < visibility horizon %a (age %g at read time %g)"
               Timestamp.pp snapshot Timestamp.pp hor d read_at)))

let rec add_versions t ts = function
  | [] -> ()
  | { Wal.key; value } :: writes ->
    add_version t ts key value;
    add_versions t ts writes

(* The token's end: its session record may be swept once no other token
   holds it. *)
let release t tok =
  t.tokens <- t.tokens - 1;
  tok.tk_session.holders <- tok.tk_session.holders - 1

let end_read ?fence t tok ~id ~site ~now ~snapshot ~reads =
  release t tok;
  let s = tok.tk_session in
  validate_reads t ~at:now ~txn:id ~session:s.name ~site ~snapshot
    ~own_writes:[] reads;
  check_inversions t tok ~at:now ~txn:id ~site ~snapshot;
  check_fence t tok ~at:now ~txn:id ~site ~snapshot fence;
  (* The floors this read raises for later transactions: a committed
     read-only transaction pins its snapshot (all levels except the
     updates-only PCSI floor), and a [Session_seq]-fenced one also raises
     its session's fence floor. *)
  bump_global t snapshot id;
  bump_session t s snapshot id;
  (match fence with
  | Some { History.claim = Session.Session_seq; _ } -> bump_fence t s snapshot
  | Some _ | None -> ());
  note_state t

let end_update t tok ~id ~now ~commit_ts ~writes ~snapshot ~reads =
  release t tok;
  if Timestamp.compare commit_ts t.last_commit_ts <= 0 then
    invalid_arg "Watchdog.end_update: commits must arrive in commit order";
  let s = tok.tk_session in
  validate_reads t ~at:now ~txn:id ~session:s.name ~site:"primary" ~snapshot
    ~own_writes:writes reads;
  check_inversions t tok ~at:now ~txn:id ~site:"primary" ~snapshot;
  bump_global t commit_ts id;
  bump_session t s commit_ts id;
  bump_update t s commit_ts id;
  bump_fence t s commit_ts;
  t.last_commit_ts <- commit_ts;
  if writes <> [] then begin
    add_versions t commit_ts writes;
    t.commits <- t.commits + 1
  end;
  note_state t

(* --- Replaying a recorded history -------------------------------------------- *)

let replay ?clock ~guarantee (h : History.t) =
  let t = create ?clock ~guarantee () in
  let get = Column.get and n = h.length in
  (* The definitions quantify over committed transactions only: an aborted
     update neither begins, ends nor holds the horizon. *)
  let aborted k = get h.commit k = History.aborted in
  (* Positions in [c]'s order, ties in recorded order. *)
  let by c =
    let a = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Int.compare (get c i) (get c j)) a;
    a
  in
  let starts = by h.first_op and ends = by h.finished in
  (* [below.(e)]: the smallest snapshot among the [e]th end and every later
     one. A begin finds unfinished exactly the transactions from some end
     on: every one that begins at or after it also ends after it. *)
  let below = Array.make (n + 1) max_int in
  for e = n - 1 downto 0 do
    let k = ends.(e) in
    below.(e) <-
      (if aborted k then below.(e + 1)
       else Int.min (get h.snapshot k) below.(e + 1))
  done;
  (* One read buffer serves every end in turn. *)
  let tokens = Array.make n unwatched and reads = History.reads () in
  let finish k =
    let tok = tokens.(k) and commit = get h.commit k in
    tokens.(k) <- unwatched;
    if commit <> History.aborted then begin
      History.load_reads h k reads;
      let id = get h.id k and now = float_of_int (get h.finished k)
      and snapshot = get h.snapshot k in
      if commit = History.read_only then
        end_read ?fence:(get h.fence k) t tok ~id ~site:(get h.site k) ~now
          ~snapshot ~reads
      else
        end_update t tok ~id ~now ~commit_ts:commit ~writes:(get h.writes k)
          ~snapshot ~reads
    end
  in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let k = starts.(i) in
    if not (aborted k) then begin
      (* An end ticked before this begin ran before it; on a tie, after. *)
      while get h.finished ends.(!j) < get h.first_op k do
        finish ends.(!j);
        incr j
      done;
      retire_below t below.(!j);
      tokens.(k) <- begin_txn t ~session:(get h.session k)
    end
  done;
  for e = !j to n - 1 do
    finish ends.(e)
  done;
  t

(* --- Results ---------------------------------------------------------------- *)

let alerts t =
  List.sort
    (fun a b ->
      match Float.compare a.at b.at with 0 -> Int.compare a.txn b.txn | c -> c)
    t.alert_log

let verdict t =
  {
    read_mismatches = t.n_read;
    v_inversions_all = t.n_inv_all;
    v_inversions_in_session = t.n_inv_sess;
    v_inversions_after_update = t.n_inv_upd;
    fence_failures = t.n_fence;
    alerts_total = t.n_alerts;
    alerts_dropped = t.n_alerts - t.alert_log_len;
  }

(* --- JSON report ------------------------------------------------------------ *)

let kind_json = function
  | Read_mismatch { key; observed; expected } ->
    [
      ("kind", Json.Str "read_mismatch");
      ("key", Json.Str key);
      ( "observed",
        match observed with Some v -> Json.Str v | None -> Json.Null );
      ( "expected",
        match expected with Some v -> Json.Str v | None -> Json.Null );
    ]
  | Inversion { level; earlier; floor } ->
    [
      ("kind", Json.Str "inversion");
      ("level", Json.Str (level_name level));
      ("earlier", Json.Num (float_of_int earlier));
      ("floor", Json.Num (float_of_int floor));
    ]
  | Fence_violation { detail } ->
    [ ("kind", Json.Str "fence_violation"); ("detail", Json.Str detail) ]

let alert_json a =
  Json.Obj
    ([
       ("at", Json.Num a.at);
       ("txn", Json.Num (float_of_int a.txn));
       ("session", Json.Str a.session);
       ("site", Json.Str a.site);
       ("snapshot", Json.Num (float_of_int a.snapshot));
     ]
    @ kind_json a.kind)

let report_json t =
  let v = verdict t in
  Json.sort_keys
    (Json.Obj
       [
         ( "verdict",
           Json.Obj
             [
               ("read_mismatches", Json.Num (float_of_int v.read_mismatches));
               ("inversions_all", Json.Num (float_of_int v.v_inversions_all));
               ( "inversions_in_session",
                 Json.Num (float_of_int v.v_inversions_in_session) );
               ( "inversions_after_update",
                 Json.Num (float_of_int v.v_inversions_after_update) );
               ("fence_failures", Json.Num (float_of_int v.fence_failures));
               ("alerts_total", Json.Num (float_of_int v.alerts_total));
               ("alerts_dropped", Json.Num (float_of_int v.alerts_dropped));
             ] );
         ("state_size", Json.Num (float_of_int (state_size t)));
         ("peak_state", Json.Num (float_of_int t.peak));
         ("live_versions", Json.Num (float_of_int (live_versions t)));
         ("retired_versions", Json.Num (float_of_int (retired_versions t)));
         ("horizon", Json.Num (float_of_int t.horizon));
         ("alerts", Json.Arr (List.map alert_json (alerts t)));
       ])
