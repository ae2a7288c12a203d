(* Compact ring encoding: one slot = one event spread across parallel
   scalar arrays; noting an event allocates nothing (a read's session label
   is the caller's shared immutable string). Site and record names are
   interned once, by the layer that notes them; codes index the fixed event
   vocabulary. *)

let c_commit = 0
let c_batched = 1
let c_shipped = 2
let c_dropped = 3
let c_duplicated = 4
let c_delayed = 5
let c_retransmitted = 6
let c_enqueued = 7
let c_refresh_start = 8
let c_refresh_commit = 9
let c_read = 10
let c_crash = 11
let c_recovery = 12

type stage =
  | Batched
  | Shipped
  | Channel_dropped
  | Channel_duplicated
  | Channel_delayed
  | Channel_retransmitted
  | Enqueued
  | Refresh_started
  | Refresh_committed

let stage_code = function
  | Batched -> c_batched
  | Shipped -> c_shipped
  | Channel_dropped -> c_dropped
  | Channel_duplicated -> c_duplicated
  | Channel_delayed -> c_delayed
  | Channel_retransmitted -> c_retransmitted
  | Enqueued -> c_enqueued
  | Refresh_started -> c_refresh_start
  | Refresh_committed -> c_refresh_commit

type event = { seq : int; time : float; site : string option; ev : ev }

and ev =
  | Commit of { txn : int; hid : int; commit_ts : int; updates : int }
  | Batched of { txn : int }
  | Shipped of { txn : int; updates : int }
  | Chan_fault of { txn : int; fault : string; record : string; ticks : int }
  | Enqueued of { txn : int }
  | Refresh_start of { txn : int }
  | Refresh_commit of { txn : int; commit_ts : int }
  | Read of { hid : int; session : string; snapshot : int; fence : int }
  | Crash
  | Recovery of { seq : int }

type snap = {
  s_reason : string;
  s_detail : string;
  s_at : float;
  s_txns : int list;
  s_events : event array; (* oldest first *)
  s_dropped : int;
  s_commits : int;
  s_horizons : (string * int) list;
}

type t = {
  live : bool;
  cap : int;
  mutable clock : (unit -> float) option;
  e_time : float array;
  e_code : int array;
  e_txn : int array;
  e_hid : int array;
  e_site : int array; (* intern id; -1 = primary *)
  e_a : int array;
  e_b : int array;
  e_sess : string array;
  mutable total : int; (* events ever noted; write head = total mod cap *)
  mutable hi_txn : int; (* highest MVCC id noted this epoch *)
  mutable names : string array;
  mutable n_names : int;
  name_ids : (string, int) Hashtbl.t;
  mutable horizons : int array; (* by site intern id: seq(DBsec), -1 = none *)
  mutable primary_ts : int;
  mutable commits : int;
  mutable snap : snap option;
}

let make ~live cap =
  let cap = if live then max 16 cap else 0 in
  {
    live;
    cap;
    clock = None;
    e_time = Array.make cap 0.;
    e_code = Array.make cap 0;
    e_txn = Array.make cap (-1);
    e_hid = Array.make cap (-1);
    e_site = Array.make cap (-1);
    e_a = Array.make cap (-1);
    e_b = Array.make cap (-1);
    e_sess = Array.make cap "";
    total = 0;
    hi_txn = -1;
    names = Array.make 8 "";
    n_names = 0;
    name_ids = Hashtbl.create 16;
    horizons = Array.make 8 (-1);
    primary_ts = 0;
    commits = 0;
    snap = None;
  }

let null = make ~live:false 0
let create ?(capacity = 4096) () = make ~live:true capacity
let enabled t = t.live
let capacity t = t.cap
let set_clock t f = if t.live then t.clock <- Some f

let new_epoch t =
  if t.live then begin
    t.total <- 0;
    t.hi_txn <- -1;
    Array.fill t.horizons 0 (Array.length t.horizons) (-1);
    t.primary_ts <- 0;
    t.commits <- 0;
    t.snap <- None
  end

let now t = match t.clock with Some f -> f () | None -> float_of_int t.total

let intern t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some i -> i
  | None when not t.live -> -1
  | None ->
    if t.n_names = Array.length t.names then begin
      let bigger = Array.make (2 * t.n_names) "" in
      Array.blit t.names 0 bigger 0 t.n_names;
      t.names <- bigger;
      let horizons = Array.make (2 * t.n_names) (-1) in
      Array.blit t.horizons 0 horizons 0 t.n_names;
      t.horizons <- horizons
    end;
    let i = t.n_names in
    t.names.(i) <- s;
    t.n_names <- i + 1;
    Hashtbl.add t.name_ids s i;
    i

let push t ~site ~code ~txn ~hid ~a ~b ~sess =
  let i = t.total mod t.cap in
  t.e_time.(i) <- now t;
  t.e_code.(i) <- code;
  t.e_txn.(i) <- txn;
  t.e_hid.(i) <- hid;
  t.e_site.(i) <- site;
  t.e_a.(i) <- a;
  t.e_b.(i) <- b;
  t.e_sess.(i) <- sess;
  if txn > t.hi_txn then t.hi_txn <- txn;
  t.total <- t.total + 1

let note_commit t ~txn ~hid ~commit_ts ~updates =
  if t.live then begin
    t.commits <- t.commits + 1;
    if commit_ts > t.primary_ts then t.primary_ts <- commit_ts;
    push t ~site:(-1) ~code:c_commit ~txn ~hid ~a:commit_ts ~b:updates ~sess:""
  end

let note_stage t ~site ~txn stage ~record n =
  if t.live then begin
    (match stage with
    | Refresh_committed when site >= 0 && n > t.horizons.(site) ->
      t.horizons.(site) <- n
    | _ -> ());
    push t ~site ~code:(stage_code stage) ~txn ~hid:(-1) ~a:record ~b:n ~sess:""
  end

let note_read t ~site ~hid ~session ~snapshot ~fence =
  if t.live then
    push t ~site ~code:c_read ~txn:(-1) ~hid ~a:snapshot ~b:fence ~sess:session

let note_crash t ~site =
  if t.live then
    push t ~site ~code:c_crash ~txn:(-1) ~hid:(-1) ~a:(-1) ~b:(-1) ~sess:""

let note_recovery t ~site ~seq =
  if t.live then begin
    t.horizons.(site) <- seq;
    push t ~site ~code:c_recovery ~txn:(-1) ~hid:(-1) ~a:seq ~b:(-1) ~sess:""
  end

let events_noted t = t.total

let approx_bytes t =
  (* Seven scalar arrays plus the session-pointer array, the retained
     session labels, and the interned name table: O(capacity + names). *)
  let retained = min t.total t.cap in
  let sess = ref 0 in
  for k = 0 to retained - 1 do
    let i = (t.total - retained + k) mod t.cap in
    sess := !sess + String.length t.e_sess.(i)
  done;
  let names = ref 0 in
  for i = 0 to t.n_names - 1 do
    names := !names + String.length t.names.(i) + 16
  done;
  (8 * 8 * t.cap) + !sess + !names

(* --- Decoding and capture ------------------------------------------------- *)

let decode_slot t i =
  let site = if t.e_site.(i) < 0 then None else Some t.names.(t.e_site.(i)) in
  let txn = t.e_txn.(i) in
  let code = t.e_code.(i) in
  let record a = if a < 0 then "" else t.names.(a) in
  let ev =
    if code = c_commit then
      Commit
        { txn; hid = t.e_hid.(i); commit_ts = t.e_a.(i); updates = t.e_b.(i) }
    else if code = c_batched then Batched { txn }
    else if code = c_shipped then Shipped { txn; updates = t.e_b.(i) }
    else if code = c_dropped then
      Chan_fault { txn; fault = "dropped"; record = record t.e_a.(i); ticks = 0 }
    else if code = c_duplicated then
      Chan_fault
        { txn; fault = "duplicated"; record = record t.e_a.(i); ticks = 0 }
    else if code = c_delayed then
      Chan_fault
        { txn; fault = "delayed"; record = record t.e_a.(i); ticks = t.e_b.(i) }
    else if code = c_retransmitted then
      Chan_fault
        { txn; fault = "retransmitted"; record = record t.e_a.(i); ticks = 0 }
    else if code = c_enqueued then Enqueued { txn }
    else if code = c_refresh_start then Refresh_start { txn }
    else if code = c_refresh_commit then
      Refresh_commit { txn; commit_ts = t.e_b.(i) }
    else if code = c_read then
      Read
        {
          hid = t.e_hid.(i);
          session = t.e_sess.(i);
          snapshot = t.e_a.(i);
          fence = t.e_b.(i);
        }
    else if code = c_crash then Crash
    else Recovery { seq = t.e_a.(i) }
  in
  (t.e_time.(i), ev, site)

let live_horizons t =
  let hs = ref [ ("primary", t.primary_ts) ] in
  for sid = 0 to t.n_names - 1 do
    if t.horizons.(sid) >= 0 then hs := (t.names.(sid), t.horizons.(sid)) :: !hs
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !hs

(* The retained slots that [keep] accepts, decoded oldest first, with the
   count of events evicted before the ring's window. *)
let window ?(keep = fun _ -> true) t =
  let retained = min t.total t.cap in
  let dropped = t.total - retained in
  let events = ref [] in
  for k = retained - 1 downto 0 do
    let i = (dropped + k) mod t.cap in
    if keep i then begin
      let time, ev, site = decode_slot t i in
      events := { seq = dropped + k; time; site; ev } :: !events
    end
  done;
  (!events, dropped)

let capture t ~reason ~detail ~txns =
  let events, dropped = window t in
  {
    s_reason = reason;
    s_detail = detail;
    s_at = now t;
    s_txns = txns;
    s_events = Array.of_list events;
    s_dropped = dropped;
    s_commits = t.commits;
    s_horizons = live_horizons t;
  }

let trigger t ?(detail = "") ?(txns = []) ~reason () =
  if t.live && t.snap = None then
    t.snap <- Some (capture t ~reason ~detail ~txns)

let triggered t = t.snap <> None
let trigger_reason t = Option.map (fun s -> s.s_reason) t.snap

(* --- Live journeys --------------------------------------------------------- *)

type journey_error = Evicted of { dropped : int } | Unknown

(* Slots of reads, crashes and recoveries carry txn -1. *)
let journey t ~txn =
  if txn < 0 then Error Unknown
  else
    match window t ~keep:(fun i -> t.e_txn.(i) = txn) with
    | (_ :: _ as j), _ -> Ok j
    | [], dropped when dropped > 0 && txn <= t.hi_txn ->
      Error (Evicted { dropped })
    | [], _ -> Error Unknown

let txns t =
  let retained = min t.total t.cap in
  List.init retained (fun k -> t.e_txn.((t.total - retained + k) mod t.cap))
  |> List.filter (fun id -> id >= 0)
  |> List.sort_uniq Int.compare

(* --- Bundle JSON ----------------------------------------------------------- *)

type bundle = {
  version : int;
  reason : string;
  detail : string;
  at : float;
  implicated : int list;
  window : event array;
  dropped : int;
  commits : int;
  horizons : (string * int) list;
  config : Json.t;
}

let num n = Json.Num (float_of_int n)

let kind_name = function
  | Commit _ -> "commit"
  | Batched _ -> "batched"
  | Shipped _ -> "shipped"
  | Chan_fault { fault; _ } -> "channel-" ^ fault
  | Enqueued _ -> "enqueued"
  | Refresh_start _ -> "refresh-start"
  | Refresh_commit _ -> "refresh-commit"
  | Read _ -> "read"
  | Crash -> "crash"
  | Recovery _ -> "recovery"

let event_json e =
  let base =
    [
      ("seq", num e.seq);
      ("time", Json.Num e.time);
      ("site", match e.site with Some s -> Json.Str s | None -> Json.Null);
      ("kind", Json.Str (kind_name e.ev));
    ]
  in
  let extra =
    match e.ev with
    | Commit { txn; hid; commit_ts; updates } ->
      [
        ("txn", num txn);
        ("hid", num hid);
        ("commit_ts", num commit_ts);
        ("updates", num updates);
      ]
    | Batched { txn } | Enqueued { txn } | Refresh_start { txn } ->
      [ ("txn", num txn) ]
    | Shipped { txn; updates } -> [ ("txn", num txn); ("updates", num updates) ]
    | Chan_fault { txn; fault = _; record; ticks } ->
      [ ("txn", num txn); ("record", Json.Str record); ("ticks", num ticks) ]
    | Refresh_commit { txn; commit_ts } ->
      [ ("txn", num txn); ("commit_ts", num commit_ts) ]
    | Read { hid; session; snapshot; fence } ->
      [
        ("hid", num hid);
        ("session", Json.Str session);
        ("snapshot", num snapshot);
        ("fence", num fence);
      ]
    | Crash -> []
    | Recovery { seq } -> [ ("seq", num seq) ]
  in
  Json.Obj (base @ extra)

let snap_for_export t =
  match t.snap with
  | Some s -> s
  | None -> capture t ~reason:"end-of-run" ~detail:"" ~txns:[]

let bundle_json t ~config =
  let s = snap_for_export t in
  let j =
    Json.Obj
      [
        ("flight_version", num 1);
        ("reason", Json.Str s.s_reason);
        ("detail", Json.Str s.s_detail);
        ("at", Json.Num s.s_at);
        ("implicated", Json.Arr (List.map num s.s_txns));
        ("capacity", num t.cap);
        ("events_noted", num (s.s_dropped + Array.length s.s_events));
        ("dropped", num s.s_dropped);
        ("commits", num s.s_commits);
        ( "horizons",
          Json.Obj (List.map (fun (site, h) -> (site, num h)) s.s_horizons) );
        ( "window",
          Json.Arr (Array.to_list (Array.map event_json s.s_events)) );
        ("config", config);
      ]
  in
  Json.sort_keys j

(* --- Parsing --------------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let jint name j =
  match Json.member name j with
  | Some (Json.Num f) -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "bundle: missing int field %S" name)

let jfloat name j =
  match Json.member name j with
  | Some (Json.Num f) -> Ok f
  | _ -> Error (Printf.sprintf "bundle: missing number field %S" name)

let jstr name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "bundle: missing string field %S" name)

let parse_event j =
  let* seq = jint "seq" j in
  let* time = jfloat "time" j in
  let* kind = jstr "kind" j in
  let site =
    match Json.member "site" j with Some (Json.Str s) -> Some s | _ -> None
  in
  let* ev =
    match kind with
    | "commit" ->
      let* txn = jint "txn" j in
      let* hid = jint "hid" j in
      let* commit_ts = jint "commit_ts" j in
      let* updates = jint "updates" j in
      Ok (Commit { txn; hid; commit_ts; updates })
    | "batched" ->
      let* txn = jint "txn" j in
      Ok (Batched { txn })
    | "shipped" ->
      let* txn = jint "txn" j in
      let* updates = jint "updates" j in
      Ok (Shipped { txn; updates })
    | "enqueued" ->
      let* txn = jint "txn" j in
      Ok (Enqueued { txn })
    | "refresh-start" ->
      let* txn = jint "txn" j in
      Ok (Refresh_start { txn })
    | "refresh-commit" ->
      let* txn = jint "txn" j in
      let* commit_ts = jint "commit_ts" j in
      Ok (Refresh_commit { txn; commit_ts })
    | "read" ->
      let* hid = jint "hid" j in
      let* session = jstr "session" j in
      let* snapshot = jint "snapshot" j in
      let* fence = jint "fence" j in
      Ok (Read { hid; session; snapshot; fence })
    | "crash" -> Ok Crash
    | "recovery" ->
      let* seq = jint "seq" j in
      Ok (Recovery { seq })
    | k when String.length k > 8 && String.sub k 0 8 = "channel-" ->
      let fault = String.sub k 8 (String.length k - 8) in
      let* txn = jint "txn" j in
      let* record = jstr "record" j in
      let* ticks = jint "ticks" j in
      Ok (Chan_fault { txn; fault; record; ticks })
    | k -> Error (Printf.sprintf "bundle: unknown event kind %S" k)
  in
  Ok { seq; time; site; ev }

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* v = f x in
    let* vs = collect f rest in
    Ok (v :: vs)

let parse_bundle j =
  let* version = jint "flight_version" j in
  if version <> 1 then
    Error (Printf.sprintf "bundle: unsupported flight_version %d" version)
  else
    let* reason = jstr "reason" j in
    let* detail = jstr "detail" j in
    let* at = jfloat "at" j in
    let* dropped = jint "dropped" j in
    let* commits = jint "commits" j in
    let* implicated =
      match Json.member "implicated" j with
      | Some (Json.Arr l) ->
        collect
          (function
            | Json.Num f -> Ok (int_of_float f)
            | _ -> Error "bundle: non-numeric implicated id")
          l
      | _ -> Error "bundle: missing implicated list"
    in
    let* window =
      match Json.member "window" j with
      | Some (Json.Arr l) ->
        let* evs = collect parse_event l in
        Ok (Array.of_list evs)
      | _ -> Error "bundle: missing window"
    in
    let* horizons =
      match Json.member "horizons" j with
      | Some (Json.Obj fields) ->
        collect
          (function
            | site, Json.Num f -> Ok (site, int_of_float f)
            | site, _ ->
              Error (Printf.sprintf "bundle: non-numeric horizon for %S" site))
          fields
      | _ -> Error "bundle: missing horizons"
    in
    let config =
      Option.value ~default:Json.Null (Json.member "config" j)
    in
    Ok
      {
        version;
        reason;
        detail;
        at;
        implicated;
        window;
        dropped;
        commits;
        horizons;
        config;
      }

(* --- Replay ---------------------------------------------------------------- *)

let ev_detail = function
  | Commit { txn; hid; commit_ts; updates } ->
    Printf.sprintf " txn=%d%s commit_ts=%d updates=%d" txn
      (if hid >= 0 then Printf.sprintf " hid=%d" hid else "")
      commit_ts updates
  | Batched { txn } | Enqueued { txn } | Refresh_start { txn } ->
    Printf.sprintf " txn=%d" txn
  | Shipped { txn; updates } -> Printf.sprintf " txn=%d updates=%d" txn updates
  | Chan_fault { txn; fault = _; record; ticks } ->
    Printf.sprintf " txn=%d record=%s%s" txn record
      (if ticks > 0 then Printf.sprintf " ticks=%d" ticks else "")
  | Refresh_commit { txn; commit_ts } ->
    Printf.sprintf " txn=%d commit_ts=%d" txn commit_ts
  | Read { hid; session; snapshot; fence } ->
    Printf.sprintf "%s session=%s snapshot=%d%s"
      (if hid >= 0 then Printf.sprintf " hid=%d" hid else "")
      session snapshot
      (if fence >= 0 then Printf.sprintf " fence=%d" fence else "")
  | Crash -> ""
  | Recovery { seq } -> Printf.sprintf " seq=%d"  seq

let pp_event ppf e =
  Format.fprintf ppf "#%-6d t=%-12s %-14s %s%s" e.seq
    (Printf.sprintf "%.6f" e.time)
    (match e.site with Some s -> s | None -> "primary")
    (kind_name e.ev) (ev_detail e.ev)

let events_until b ~vt =
  Array.to_list b.window |> List.filter (fun e -> e.time <= vt)

let event_ids e =
  match e.ev with
  | Commit { txn; hid; _ } -> if hid >= 0 then [ txn; hid ] else [ txn ]
  | Batched { txn }
  | Shipped { txn; _ }
  | Chan_fault { txn; _ }
  | Enqueued { txn }
  | Refresh_start { txn }
  | Refresh_commit { txn; _ } ->
    [ txn ]
  | Read { hid; _ } -> [ hid ]
  | Crash | Recovery _ -> []

let txn_events b ~id =
  Array.to_list b.window
  |> List.filter (fun e -> List.mem id (event_ids e))

let horizons_at b ~vt =
  let sites = Hashtbl.create 8 in
  Hashtbl.replace sites "primary" (-1);
  Array.iter
    (fun e ->
      (match e.site with
      | Some s -> if not (Hashtbl.mem sites s) then Hashtbl.replace sites s (-1)
      | None -> ());
      if e.time <= vt then
        match (e.site, e.ev) with
        | None, Commit { commit_ts; _ } ->
          if commit_ts > Hashtbl.find sites "primary" then
            Hashtbl.replace sites "primary" commit_ts
        | Some s, Refresh_commit { commit_ts; _ } ->
          if commit_ts > Hashtbl.find sites s then
            Hashtbl.replace sites s commit_ts
        | Some s, Recovery { seq } ->
          if seq > Hashtbl.find sites s then Hashtbl.replace sites s seq
        | _ -> ())
    b.window;
  Hashtbl.fold (fun s h acc -> (s, h) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let witness_events b =
  let ids = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace ids id ()) b.implicated;
  (* Implicated ids are history ids where they exist; a commit event ties a
     history id to its MVCC id, pulling the whole pipeline journey of that
     update into the witness. *)
  Array.iter
    (fun e ->
      match e.ev with
      | Commit { txn; hid; _ } when hid >= 0 && Hashtbl.mem ids hid ->
        Hashtbl.replace ids txn ()
      | _ -> ())
    b.window;
  Array.to_list b.window
  |> List.filter (fun e ->
         List.exists (fun id -> Hashtbl.mem ids id) (event_ids e))

let diff a b =
  let na = Array.length a.window and nb = Array.length b.window in
  let rec go i =
    if i >= na && i >= nb then None
    else if i >= na then Some (i, None, Some b.window.(i))
    else if i >= nb then Some (i, Some a.window.(i), None)
    else if a.window.(i) = b.window.(i) then go (i + 1)
    else Some (i, Some a.window.(i), Some b.window.(i))
  in
  go 0
