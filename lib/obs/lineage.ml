type stage =
  | Primary_commit of { commit_ts : int; updates : int }
  | Batched
  | Shipped of { updates : int }
  | Channel_dropped of { record : string }
  | Channel_duplicated of { record : string }
  | Channel_delayed of { record : string; ticks : int }
  | Channel_retransmitted of { record : string }
  | Enqueued
  | Refresh_started
  | Refresh_committed of { commit_ts : int }

type event = {
  seq : int;
  time : float;
  txn : int;
  site : string option;
  stage : stage;
}

type freshness = { at : float; age : float; missed : int }

type t = {
  live : bool;
  mutable clock : (unit -> float) option;
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  fresh_by_site : (string, freshness list ref) Hashtbl.t; (* newest first *)
  lags_by_site : (string, float list ref) Hashtbl.t; (* newest first *)
}

let make ~live =
  {
    live;
    clock = None;
    events = [];
    n_events = 0;
    fresh_by_site = Hashtbl.create 8;
    lags_by_site = Hashtbl.create 8;
  }

let null = make ~live:false
let create () = make ~live:true
let enabled t = t.live
let set_clock t f = if t.live then t.clock <- Some f

(* With no clock bound, events are stamped with their own ordinal: strictly
   increasing, so journeys stay monotone even outside the simulator. *)
let now t =
  match t.clock with Some f -> f () | None -> float_of_int t.n_events

let push tbl site x =
  match Hashtbl.find_opt tbl site with
  | Some r -> r := x :: !r
  | None -> Hashtbl.add tbl site (ref [ x ])

let emit t ?site ~txn stage =
  if t.live then begin
    t.events <- { seq = t.n_events; time = now t; txn; site; stage } :: t.events;
    t.n_events <- t.n_events + 1
  end

let sample_read t ~site ~at ~age ~missed =
  if t.live then push t.fresh_by_site site { at; age; missed }

let sample_lag t ~site lag = if t.live then push t.lags_by_site site lag

(* --- Accessors ---------------------------------------------------------- *)

let event_count t = t.n_events

let commit_count t =
  List.fold_left
    (fun n ev -> match ev.stage with Primary_commit _ -> n + 1 | _ -> n)
    0 t.events

let events t = List.rev t.events

let txns t =
  let seen = Hashtbl.create 64 in
  List.iter (fun ev -> Hashtbl.replace seen ev.txn ()) t.events;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])

let journey t ~txn = List.rev (List.filter (fun ev -> ev.txn = txn) t.events)

let sites t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter (fun s _ -> Hashtbl.replace seen s ()) t.fresh_by_site;
  Hashtbl.iter (fun s _ -> Hashtbl.replace seen s ()) t.lags_by_site;
  List.sort String.compare (Hashtbl.fold (fun s () acc -> s :: acc) seen [])

let freshness_samples t ~site =
  match Hashtbl.find_opt t.fresh_by_site site with
  | Some r -> List.rev !r
  | None -> []

let refresh_lags t ~site =
  match Hashtbl.find_opt t.lags_by_site site with
  | Some r -> List.rev !r
  | None -> []

(* --- Rendering ---------------------------------------------------------- *)

let stage_name = function
  | Primary_commit _ -> "primary-commit"
  | Batched -> "batched"
  | Shipped _ -> "shipped"
  | Channel_dropped _ -> "channel-dropped"
  | Channel_duplicated _ -> "channel-duplicated"
  | Channel_delayed _ -> "channel-delayed"
  | Channel_retransmitted _ -> "channel-retransmitted"
  | Enqueued -> "enqueued"
  | Refresh_started -> "refresh-started"
  | Refresh_committed _ -> "refresh-committed"

let stage_detail = function
  | Primary_commit { commit_ts; updates } ->
    Printf.sprintf " commit_ts=%d updates=%d" commit_ts updates
  | Shipped { updates } -> Printf.sprintf " updates=%d" updates
  | Channel_dropped { record }
  | Channel_duplicated { record }
  | Channel_retransmitted { record } ->
    Printf.sprintf " record=%s" record
  | Channel_delayed { record; ticks } ->
    Printf.sprintf " record=%s ticks=%d" record ticks
  | Refresh_committed { commit_ts } -> Printf.sprintf " commit_ts=%d" commit_ts
  | Batched | Enqueued | Refresh_started -> ""

let pp_event ppf ev =
  Format.fprintf ppf "t=%-12s %-14s %s%s"
    (Printf.sprintf "%.6f" ev.time)
    (match ev.site with Some s -> s | None -> "primary")
    (stage_name ev.stage) (stage_detail ev.stage)

(* --- Export -------------------------------------------------------------- *)

let event_json ev =
  let num n = Json.Num (float_of_int n) in
  let base =
    [
      ("seq", num ev.seq);
      ("time", Json.Num ev.time);
      ("site", match ev.site with Some s -> Json.Str s | None -> Json.Null);
      ("stage", Json.Str (stage_name ev.stage));
    ]
  in
  let extra =
    match ev.stage with
    | Primary_commit { commit_ts; updates } ->
      [ ("commit_ts", num commit_ts); ("updates", num updates) ]
    | Shipped { updates } -> [ ("updates", num updates) ]
    | Channel_dropped { record }
    | Channel_duplicated { record }
    | Channel_retransmitted { record } ->
      [ ("record", Json.Str record) ]
    | Channel_delayed { record; ticks } ->
      [ ("record", Json.Str record); ("ticks", num ticks) ]
    | Refresh_committed { commit_ts } -> [ ("commit_ts", num commit_ts) ]
    | Batched | Enqueued | Refresh_started -> []
  in
  Json.Obj (base @ extra)

let to_json t =
  let num n = Json.Num (float_of_int n) in
  let txn_json id =
    Json.Obj
      [
        ("txn", num id);
        ("events", Json.Arr (List.map event_json (journey t ~txn:id)));
      ]
  in
  let site_json s =
    let fresh f =
      Json.Obj
        [
          ("at", Json.Num f.at);
          ("age", Json.Num f.age);
          ("missed", num f.missed);
        ]
    in
    Json.Obj
      [
        ("site", Json.Str s);
        ("freshness", Json.Arr (List.map fresh (freshness_samples t ~site:s)));
        ( "refresh_lags",
          Json.Arr (List.map (fun l -> Json.Num l) (refresh_lags t ~site:s)) );
      ]
  in
  Json.Obj
    [
      ("commits", num (commit_count t));
      ("events", num t.n_events);
      ("txns", Json.Arr (List.map txn_json (txns t)));
      ("sites", Json.Arr (List.map site_json (sites t)));
    ]
