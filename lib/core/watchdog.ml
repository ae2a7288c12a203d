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

(* One key, as in [Mvcc]'s key cells: its hash, the next cell of its hash
   bucket, the folded base value of every retired write, and the
   committed-writer chain of the live ones, in commit-timestamp order, as a
   window [lo, hi) over growable arrays. Retirement only ever drops the
   oldest version, so the window slides forward and the dead prefix is
   reclaimed by compaction once it dominates the array. A chain that
   retirement empties gives its arrays back and keeps its base. *)
type cell = {
  key : string;
  hash : int;
  mutable next : cell;
  mutable c_base : string option;
  mutable c_ts : Timestamp.t array;
  mutable c_v : string option array;
  mutable c_lo : int;
  mutable c_hi : int;
}

(* Ends every bucket and stands for a key never written: an empty chain
   with an absent base. *)
let rec no_cell =
  { key = ""; hash = -1; next = no_cell; c_base = None; c_ts = [||];
    c_v = [||]; c_lo = 0; c_hi = 0 }

let chain_append c ts v =
  let cap = Array.length c.c_ts in
  if c.c_hi = cap then begin
    let live = c.c_hi - c.c_lo in
    if c.c_lo >= live && c.c_lo > 0 then begin
      (* Dead prefix at least half the array: slide the window back. *)
      Array.blit c.c_ts c.c_lo c.c_ts 0 live;
      Array.blit c.c_v c.c_lo c.c_v 0 live
    end
    else begin
      let cap' = max 1 (2 * cap) in
      let ts' = Array.make cap' Timestamp.zero and v' = Array.make cap' None in
      Array.blit c.c_ts c.c_lo ts' 0 live;
      Array.blit c.c_v c.c_lo v' 0 live;
      c.c_ts <- ts';
      c.c_v <- v'
    end;
    c.c_lo <- 0;
    c.c_hi <- live
  end;
  c.c_ts.(c.c_hi) <- ts;
  c.c_v.(c.c_hi) <- v;
  c.c_hi <- c.c_hi + 1

(* Index one past the last version with ts <= [s]; the visible version is
   at the returned index - 1. *)
let chain_partition c s =
  let lo = ref c.c_lo and hi = ref c.c_hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.c_ts.(mid) <= s then lo := mid + 1 else hi := mid
  done;
  !lo

(* Folds the oldest live version into the base. *)
let chain_retire_head c =
  c.c_base <- c.c_v.(c.c_lo);
  c.c_v.(c.c_lo) <- None;
  (* release the value for the GC *)
  c.c_lo <- c.c_lo + 1;
  if c.c_lo = c.c_hi then begin
    c.c_ts <- [||];
    c.c_v <- [||];
    c.c_lo <- 0;
    c.c_hi <- 0
  end

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
  (* Weak-SI state, per key: primary writes newer than the horizon plus the
     folded base value of everything retired, in a chained hash table whose
     bucket nodes are the cells; it doubles once [keys > 2 * buckets]. *)
  mutable buckets : cell array;
  mutable keys : int;
  (* The unretired versions' cells in commit order, each commit's ended by
     [no_cell]: a cell's chain head is the version to retire. A ring of
     [unretired] slots from [first], doubled when full. *)
  mutable ring : cell array;
  mutable first : int;
  mutable unretired : int;
  mutable last_commit_ts : Timestamp.t;
  mutable live_versions : int;
  mutable retired_versions : int;
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
    buckets = Array.make 1024 no_cell;
    keys = 0;
    ring = Array.make 64 no_cell;
    first = 0;
    unretired = 0;
    last_commit_ts = Timestamp.zero;
    live_versions = 0;
    retired_versions = 0;
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

(* The ring holds one entry per live version and one per unretired commit. *)
let state_size t = t.unretired + t.floors + t.tokens

let peak_state t = t.peak
let retired_versions t = t.retired_versions
let live_versions t = t.live_versions
let horizon t = t.horizon

let note_state t =
  let s = state_size t in
  if s > t.peak then t.peak <- s

(* --- Key cells -------------------------------------------------------------- *)

let rec find_in c h key =
  if c == no_cell || (c.hash = h && String.equal c.key key) then c
  else find_in c.next h key

(* The key's cell, or [no_cell] when the key was never written. *)
let find t key =
  let h = String.hash key in
  find_in t.buckets.(h land (Array.length t.buckets - 1)) h key

let rec insert buckets c =
  if c != no_cell then begin
    let next = c.next and i = c.hash land (Array.length buckets - 1) in
    c.next <- buckets.(i);
    buckets.(i) <- c;
    insert buckets next
  end

(* The key's cell, made empty when the key is new. *)
let find_or_add t key =
  let c = find t key in
  if c != no_cell then c
  else begin
    let c = { no_cell with key; hash = String.hash key; next = no_cell } in
    insert t.buckets c;
    t.keys <- t.keys + 1;
    if t.keys > 2 * Array.length t.buckets then begin
      let buckets = Array.make (2 * Array.length t.buckets) no_cell in
      Array.iter (insert buckets) t.buckets;
      t.buckets <- buckets
    end;
    c
  end

(* --- Unretired ring ----------------------------------------------------------- *)

let push t c =
  let cap = Array.length t.ring in
  if t.unretired = cap then begin
    let ring = Array.make (2 * cap) no_cell in
    for i = 0 to cap - 1 do
      ring.(i) <- t.ring.((t.first + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.first <- 0
  end;
  t.ring.((t.first + t.unretired) land (Array.length t.ring - 1)) <- c;
  t.unretired <- t.unretired + 1

(* Whether the ring's front retires at horizon [h]: the oldest unretired
   version, if at or below [h], or the end of a commit it retired. *)
let retirable t h =
  t.unretired > 0
  &&
  let c = t.ring.(t.first) in
  c == no_cell || c.c_ts.(c.c_lo) <= h

let pop t =
  let c = t.ring.(t.first) in
  t.first <- (t.first + 1) land (Array.length t.ring - 1);
  t.unretired <- t.unretired - 1;
  c

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
  while retirable t h do
    let c = pop t in
    if c != no_cell then begin
      chain_retire_head c;
      t.live_versions <- t.live_versions - 1;
      t.retired_versions <- t.retired_versions + 1
    end
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


(* Expected value of [key] in primary state S@[snapshot]: newest live chain
   version at or below the snapshot, else the folded base (everything
   retired is at or below the horizon, hence visible), else absent. Only
   called with [snapshot >= horizon at the reader's first operation], which
   the caller's horizon guarantees: it never passes an open transaction's
   snapshot. *)
let expected_value t key snapshot =
  let c = find t key in
  let pos = chain_partition c snapshot in
  if pos > c.c_lo then c.c_v.(pos - 1) else c.c_base

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
    let c = find_or_add t key in
    chain_append c ts value;
    push t c;
    t.live_versions <- t.live_versions + 1;
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
    push t no_cell
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
         ("live_versions", Json.Num (float_of_int t.live_versions));
         ("retired_versions", Json.Num (float_of_int t.retired_versions));
         ("horizon", Json.Num (float_of_int t.horizon));
         ("alerts", Json.Arr (List.map alert_json (alerts t)));
       ])
