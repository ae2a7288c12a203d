open Lsr_storage
module Json = Lsr_obs.Json

exception Unknown_site of { site : int; sites : int }

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

module Keys = Hashtbl.Make (String)
module Serials = Hashtbl.Make (Int)

(* A per-key record: the folded base value of every retired write, and the
   committed-writer chain of the live ones, in commit-timestamp order, as a
   window [lo, hi) over a growable ring-free array. Retirement only ever
   drops the oldest version, so the window slides forward and the dead
   prefix is reclaimed by compaction once it dominates the array. A chain
   that retirement empties gives its arrays back and keeps its base. *)
type chain = {
  mutable c_base : string option;
  mutable c_ts : Timestamp.t array;
  mutable c_v : string option array;
  mutable c_lo : int;
  mutable c_hi : int;
}

let chain_create () = { c_base = None; c_ts = [||]; c_v = [||]; c_lo = 0; c_hi = 0 }

let chain_len c = c.c_hi - c.c_lo

let chain_append c ts v =
  let cap = Array.length c.c_ts in
  if c.c_hi = cap then begin
    let live = chain_len c in
    if c.c_lo >= live && c.c_lo > 0 then begin
      (* Dead prefix at least half the array: slide the window back. *)
      Array.blit c.c_ts c.c_lo c.c_ts 0 live;
      Array.blit c.c_v c.c_lo c.c_v 0 live
    end
    else begin
      let cap' = max 4 (2 * cap) in
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

(* Index one past the last version with ts <= [s] (cf. the checker's
   [partition]); the visible version is at the returned index - 1. *)
let chain_partition c s =
  let lo = ref c.c_lo and hi = ref c.c_hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Timestamp.compare c.c_ts.(mid) s <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let chain_drop_head c =
  c.c_v.(c.c_lo) <- None;
  (* release the value for the GC *)
  c.c_lo <- c.c_lo + 1;
  if c.c_lo = c.c_hi then begin
    c.c_ts <- [||];
    c.c_v <- [||];
    c.c_lo <- 0;
    c.c_hi <- 0
  end

type token = {
  tk_serial : int;
  tk_session : string;
  tk_global : (Timestamp.t * int) option;
  tk_session_floor : (Timestamp.t * int) option;
  tk_update_floor : (Timestamp.t * int) option;
  tk_fence_floor : Timestamp.t option;
  tk_snapshot : Timestamp.t;  (* reads only; updates re-declare at end *)
}

(* Alerts the log retains; the per-kind counters stay exact past it. *)
let alert_cap = 256

type t = {
  forbidden : level option;  (* the guarantee's forbidden inversion level *)
  flight : Lsr_obs.Flight.t;
  clock : Session.clock option;
  (* Weak-SI state, per key: primary writes newer than the horizon plus the
     folded base value of everything retired. *)
  chains : chain Keys.t;
  unretired : (Timestamp.t * Wal.update list) Queue.t;
  mutable last_commit_ts : Timestamp.t;
  mutable live_versions : int;
  mutable retired_versions : int;
  (* Inversion floors: maximal pinned state with its witness, globally and
     per session (all committed txns, and updates only for PCSI); plus the
     fence-audit session floor. *)
  mutable global_floor : (Timestamp.t * int) option;
  session_floor : (string, Timestamp.t * int) Hashtbl.t;
  update_floor : (string, Timestamp.t * int) Hashtbl.t;
  fence_floor : (string, Timestamp.t) Hashtbl.t;
  mutable floors_swept_at : int;
  (* Retirement horizon inputs: per-site seq(DBsec) and in-flight pins. *)
  site_seq : Timestamp.t array;
  pins : Timestamp.t Serials.t;
  mutable min_pin : Timestamp.t;  (* valid unless [min_pin_dirty] *)
  mutable min_pin_dirty : bool;
  mutable next_serial : int;
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

let create ?(flight = Lsr_obs.Flight.null) ?clock ~guarantee ~sites () =
  if sites < 1 then invalid_arg "Watchdog.create: need at least 1 site";
  {
    forbidden = Session.forbidden_level guarantee;
    flight;
    clock;
    chains = Keys.create 1024;
    unretired = Queue.create ();
    last_commit_ts = Timestamp.zero;
    live_versions = 0;
    retired_versions = 0;
    global_floor = None;
    session_floor = Hashtbl.create 64;
    update_floor = Hashtbl.create 64;
    fence_floor = Hashtbl.create 64;
    floors_swept_at = 0;
    site_seq = Array.make sites Timestamp.zero;
    pins = Serials.create 64;
    min_pin = max_int;
    min_pin_dirty = false;
    next_serial = 0;
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

let state_size t =
  t.live_versions + Queue.length t.unretired
  + Hashtbl.length t.session_floor
  + Hashtbl.length t.update_floor
  + Hashtbl.length t.fence_floor
  + Serials.length t.pins

let peak_state t = t.peak
let retired_versions t = t.retired_versions
let live_versions t = t.live_versions
let horizon t = t.horizon

let note_state t =
  let s = state_size t in
  if s > t.peak then t.peak <- s

(* --- Horizon pins ----------------------------------------------------------- *)

let pin t ts =
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  Serials.replace t.pins serial ts;
  if ts < t.min_pin then t.min_pin <- ts;
  serial

let unpin t serial =
  match Serials.find_opt t.pins serial with
  | None -> ()
  | Some ts ->
    Serials.remove t.pins serial;
    if ts = t.min_pin then t.min_pin_dirty <- true

let min_pin t =
  if t.min_pin_dirty then begin
    t.min_pin <- Serials.fold (fun _ ts acc -> Int.min ts acc) t.pins max_int;
    t.min_pin_dirty <- false
  end;
  t.min_pin

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

let pp_alert ppf a =
  Format.fprintf ppf "[%.3f] txn %d (session %s at %s, snapshot %a): %a" a.at
    a.txn a.session a.site Timestamp.pp a.snapshot pp_kind a.kind

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

(* Raise a floor, keeping the earlier witness on equal timestamps — the same
   tie rule as [Checker.inversions]'s [note]. *)
let bump_floor tbl session ts id =
  match Hashtbl.find_opt tbl session with
  | Some (best, _) when Timestamp.compare best ts >= 0 -> ()
  | Some _ | None -> Hashtbl.replace tbl session (ts, id)

let bump_global t ts id =
  match t.global_floor with
  | Some (best, _) when Timestamp.compare best ts >= 0 -> ()
  | Some _ | None -> t.global_floor <- Some (ts, id)

let bump_fence_floor t session ts =
  match Hashtbl.find_opt t.fence_floor session with
  | Some best when Timestamp.compare best ts >= 0 -> ()
  | Some _ | None -> Hashtbl.replace t.fence_floor session ts

(* Session floors at or below the horizon can never fire again: any future
   transaction's snapshot is at least the horizon at its own first operation
   (a read's snapshot is its site's seq(DBsec) >= the min over sites; an
   update's snapshot is the primary's newest commit >= every retired one).
   Sweeping them keeps the tables O(sessions active in the window). *)
let floors_len t =
  Hashtbl.length t.session_floor
  + Hashtbl.length t.update_floor
  + Hashtbl.length t.fence_floor

let sweep_floors t =
  let len = floors_len t in
  if len >= 64 && len >= 2 * t.floors_swept_at then begin
    let drop tbl keep_of =
      let dead =
        Hashtbl.fold
          (fun session v acc ->
            if Timestamp.compare (keep_of v) t.horizon <= 0 then session :: acc
            else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) dead
    in
    drop t.session_floor fst;
    drop t.update_floor fst;
    drop t.fence_floor (fun ts -> ts);
    t.floors_swept_at <- floors_len t
  end

(* --- Retirement ------------------------------------------------------------- *)

let retire t =
  if not (Queue.is_empty t.unretired) then begin
    let site_min = Array.fold_left Int.min max_int t.site_seq in
    let front_ts, _ = Queue.peek t.unretired in
    if Timestamp.compare front_ts site_min <= 0 then begin
      let h = Int.min site_min (min_pin t) in
      if Timestamp.compare h t.horizon > 0 then t.horizon <- h;
      while
        match Queue.peek_opt t.unretired with
        | Some (ts, _) -> Timestamp.compare ts h <= 0
        | None -> false
      do
        let ts, writes = Queue.pop t.unretired in
        List.iter
          (fun { Wal.key; value } ->
            (match Keys.find_opt t.chains key with
            | Some c when chain_len c > 0 && Timestamp.equal c.c_ts.(c.c_lo) ts ->
              c.c_base <- value;
              chain_drop_head c
            | Some _ | None ->
              (* Commits arrive in timestamp order and retire in the same
                 order, so the popped version is always the chain head. *)
              assert false);
            t.live_versions <- t.live_versions - 1;
            t.retired_versions <- t.retired_versions + 1)
          writes
      done;
      sweep_floors t
    end
  end

let note_refresh t ~site ~seq =
  let sites = Array.length t.site_seq in
  if site < 0 || site >= sites then raise (Unknown_site { site; sites });
  if Timestamp.compare seq t.site_seq.(site) > 0 then begin
    t.site_seq.(site) <- seq;
    retire t;
    note_state t
  end

(* --- Event stream ----------------------------------------------------------- *)

let capture t ~session ~pin_at =
  {
    tk_serial = pin t pin_at;
    tk_session = session;
    tk_global = t.global_floor;
    tk_session_floor = Hashtbl.find_opt t.session_floor session;
    tk_update_floor = Hashtbl.find_opt t.update_floor session;
    tk_fence_floor = Hashtbl.find_opt t.fence_floor session;
    tk_snapshot = pin_at;
  }

let begin_read t ~session ~snapshot = capture t ~session ~pin_at:snapshot

let begin_update t ~session =
  (* Any attempt of this transaction reads the primary's newest commit at
     attempt start, which is at least the newest commit seen so far. *)
  capture t ~session ~pin_at:t.last_commit_ts

(* Expected value of [key] in primary state S@[snapshot]: newest live chain
   version at or below the snapshot, else the folded base (everything
   retired is at or below the horizon, hence visible), else absent. Only
   called with [snapshot >= horizon at the reader's first operation], which
   the token's pin guarantees. *)
let expected_value t key snapshot =
  match Keys.find_opt t.chains key with
  | Some c ->
    let pos = chain_partition c snapshot in
    if pos > c.c_lo then c.c_v.(pos - 1) else c.c_base
  | None -> None

let validate_reads t ~at ~txn ~session ~site ~snapshot ~own_writes reads =
  List.iter
    (fun (key, observed) ->
      let own =
        match own_writes with
        | [] -> false
        | ws -> List.exists (fun { Wal.key = k; _ } -> String.equal k key) ws
      in
      if not own then begin
        let expected = expected_value t key snapshot in
        if not (Option.equal String.equal expected observed) then
          record_alert t ~at ~txn ~session ~site ~snapshot
            (Read_mismatch { key; observed; expected })
      end)
    reads

(* An inversion at every level bumps that level's count; only one at the
   forbidden level is an alert. *)
let check_level t tok ~at ~txn ~site ~snapshot level floor =
  match floor with
  | Some (ts, earlier) when Timestamp.compare snapshot ts < 0 ->
    (match level with
    | All_sessions -> t.n_inv_all <- t.n_inv_all + 1
    | In_session -> t.n_inv_sess <- t.n_inv_sess + 1
    | After_update -> t.n_inv_upd <- t.n_inv_upd + 1);
    (match t.forbidden with
    | Some forbidden when forbidden = level ->
      record_alert t ~at ~txn ~session:tok.tk_session ~site ~snapshot
        (Inversion { level; earlier; floor = ts })
    | Some _ | None -> ())
  | Some _ | None -> ()

let check_inversions t tok ~at ~txn ~site ~snapshot =
  check_level t tok ~at ~txn ~site ~snapshot All_sessions tok.tk_global;
  check_level t tok ~at ~txn ~site ~snapshot In_session tok.tk_session_floor;
  check_level t tok ~at ~txn ~site ~snapshot After_update tok.tk_update_floor

let check_fence t tok ~at ~txn ~site ~snapshot fence =
  match fence with
  | None -> ()
  | Some { History.claim; read_at } ->
    let violation detail =
      record_alert t ~at ~txn ~session:tok.tk_session ~site ~snapshot
        (Fence_violation { detail })
    in
    (match claim with
    | Session.Exact ts ->
      if Timestamp.compare snapshot ts < 0 then
        violation
          (Format.asprintf "snapshot %a < exact fence %a" Timestamp.pp snapshot
             Timestamp.pp ts)
    | Session.Session_seq -> (
      match tok.tk_fence_floor with
      | Some floor when Timestamp.compare snapshot floor < 0 ->
        violation
          (Format.asprintf "snapshot %a < session fence floor %a" Timestamp.pp
             snapshot Timestamp.pp floor)
      | Some _ | None -> ())
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

let end_read ?fence t tok ~id ~site ~now ~reads =
  unpin t tok.tk_serial;
  let snapshot = tok.tk_snapshot in
  validate_reads t ~at:now ~txn:id ~session:tok.tk_session ~site ~snapshot
    ~own_writes:[] reads;
  check_inversions t tok ~at:now ~txn:id ~site ~snapshot;
  check_fence t tok ~at:now ~txn:id ~site ~snapshot fence;
  (* The floors this read raises for later transactions: a committed
     read-only transaction pins its snapshot (all levels except the
     updates-only PCSI floor), and a [Session_seq]-fenced one also raises
     its session's fence floor. *)
  bump_global t snapshot id;
  bump_floor t.session_floor tok.tk_session snapshot id;
  (match fence with
  | Some { History.claim = Session.Session_seq; _ } ->
    bump_fence_floor t tok.tk_session snapshot
  | Some _ | None -> ());
  note_state t

let end_update t tok ~id ~now ~commit ~snapshot ~reads =
  unpin t tok.tk_serial;
  match commit with
  | None ->
    (* Aborted: pins nothing, checks nothing (the definitions quantify over
       committed transactions; the post-hoc checker never sees this
       transaction in the simulator either). *)
    note_state t
  | Some (commit_ts, writes) ->
    if Timestamp.compare commit_ts t.last_commit_ts <= 0 then
      invalid_arg "Watchdog.end_update: commits must arrive in commit order";
    validate_reads t ~at:now ~txn:id ~session:tok.tk_session ~site:"primary"
      ~snapshot ~own_writes:writes reads;
    check_inversions t tok ~at:now ~txn:id ~site:"primary" ~snapshot;
    bump_global t commit_ts id;
    bump_floor t.session_floor tok.tk_session commit_ts id;
    bump_floor t.update_floor tok.tk_session commit_ts id;
    bump_fence_floor t tok.tk_session commit_ts;
    t.last_commit_ts <- commit_ts;
    if writes <> [] then begin
      List.iter
        (fun { Wal.key; value } ->
          let c =
            match Keys.find_opt t.chains key with
            | Some c -> c
            | None ->
              let c = chain_create () in
              Keys.replace t.chains key c;
              c
          in
          chain_append c commit_ts value;
          t.live_versions <- t.live_versions + 1)
        writes;
      Queue.push (commit_ts, writes) t.unretired
    end;
    note_state t

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
