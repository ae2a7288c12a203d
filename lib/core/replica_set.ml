open Lsr_storage
module Sinks = Lsr_obs.Sinks
module Obs = Lsr_obs.Obs
module Flight = Lsr_obs.Flight

(* One secondary's freshness instruments, interned together on first use. *)
type freshness = {
  read_age : Obs.histogram;
  read_missed : Obs.histogram;
  missed_commits : Obs.gauge;
  refresh_lag : Obs.histogram;
}

type t = {
  primary : Primary.t;
  propagator : Propagation.t;
  sessions : Session.t;
  clock : Session.clock;
  history : History.t;
  record_history : bool;
  watchdog : Watchdog.t option;
  tracking : bool;
  sinks : Sinks.t;
  now : unit -> float;
  freshness : (string, freshness) Hashtbl.t;
}

(* The watchdog's alert hook: trigger the recorder's capture once. *)
let flight_trigger flight (a : Watchdog.alert) =
  if not (Flight.triggered flight) then
    let txns =
      match a.Watchdog.kind with
      | Watchdog.Inversion { earlier; _ } -> [ a.Watchdog.txn; earlier ]
      | _ -> [ a.Watchdog.txn ]
    in
    Flight.trigger flight ~reason:"watchdog"
      ~detail:(Format.asprintf "%a" Watchdog.pp_alert a)
      ~txns ()

let create ?now ~ship_aborted ~sinks ~record_history ~watchdog ~sites
    guarantee =
  let history = History.create () in
  let now =
    match now with
    | Some f ->
      (* A new run: commit timestamps and txn ids restart, so the recorder's
         commit bookkeeping restarts too. *)
      Flight.new_epoch sinks.Sinks.flight;
      f
    | None -> fun () -> float_of_int (History.now history)
  in
  Flight.set_clock sinks.flight now;
  let primary = Primary.create () in
  let clock = Session.clock_create () in
  let watchdog =
    if not watchdog then None
    else
      Some
        (Watchdog.create ~sinks ~clock ~sites
           ?on_alert:
             (if Flight.enabled sinks.flight then
                Some (flight_trigger sinks.flight)
              else None)
           ())
  in
  {
    primary;
    propagator =
      Propagation.create ~from:0 ~ship_aborted ~sinks (Primary.wal primary);
    sessions = Session.create guarantee;
    clock;
    history;
    record_history;
    watchdog;
    tracking = record_history || watchdog <> None;
    sinks;
    now;
    freshness = Hashtbl.create 8;
  }

let primary t = t.primary
let propagator t = t.propagator
let sessions t = t.sessions
let clock t = t.clock
let history t = t.history
let watchdog t = t.watchdog
let sinks t = t.sinks
let now t = t.now ()
let tracking t = t.tracking

let freshness t site =
  match Hashtbl.find_opt t.freshness site with
  | Some f -> f
  | None ->
    let obs = t.sinks.obs in
    let f =
      {
        read_age = Obs.histogram obs (site ^ ".read_age");
        read_missed = Obs.histogram obs (site ^ ".read_missed");
        missed_commits = Obs.gauge obs (site ^ ".missed_commits");
        refresh_lag = Obs.histogram obs (site ^ ".refresh_lag");
      }
    in
    Hashtbl.add t.freshness site f;
    f

(* --- Secondaries ------------------------------------------------------------- *)

let site_name i = Printf.sprintf "secondary-%d" i

let note_refresh t i seq =
  match t.watchdog with
  | Some w -> Watchdog.note_refresh w ~site:i ~seq
  | None -> ()

let secondary ?(on_refresh_commit = ignore) ?backup t i =
  let name = site_name i in
  let on_refresh_commit ts =
    on_refresh_commit ts;
    (if Obs.enabled t.sinks.obs then
       match Session.clock_time_of t.clock ts with
       | Some committed_at ->
         Obs.observe (freshness t name).refresh_lag (t.now () -. committed_at)
       | None -> ());
    note_refresh t i ts
  in
  match backup with
  | None -> Secondary.create ~name ~sinks:t.sinks ~on_refresh_commit ()
  | Some b -> Secondary.create_from ~name ~sinks:t.sinks ~on_refresh_commit b

let crashed t i = Flight.note_crash t.sinks.flight ~site:(site_name i)

(* The recovered copy corresponds to primary state [seq]: the watchdog's
   per-site horizon jumps forward with it. *)
let recovered t i ~seq =
  Flight.note_recovery t.sinks.flight ~site:(site_name i) ~seq;
  note_refresh t i seq

(* --- Transactions -------------------------------------------------------------- *)

type txn = { first_op : int; token : Watchdog.token option }

let untracked = { first_op = 0; token = None }
let tracked t token = { first_op = History.tick t.history; token }

let begin_update t ~session =
  if not t.tracking then untracked
  else
    tracked t (Option.map (fun w -> Watchdog.begin_update w ~session) t.watchdog)

(* Judge and record a finished update; [commit] is [None] for an abort. *)
let end_update t u ~id ~finished ~now ~session ~commit ~snapshot ~reads =
  (match (t.watchdog, u.token) with
  | Some w, Some tok ->
    Watchdog.end_update w tok ~id ~now ~commit ~snapshot ~reads
  | _ -> ());
  if t.record_history then
    History.add t.history
      {
        History.id;
        session;
        kind = History.Update;
        site = "primary";
        first_op = u.first_op;
        finished;
        snapshot;
        commit_ts = Option.map fst commit;
        reads;
        writes = (match commit with Some (_, writes) -> writes | None -> []);
        fence = None;
      }

(* One id and finish tick per transaction, shared by the history record and
   the watchdog, so inversion witnesses are comparable across both. *)
let finish_tick t =
  if t.tracking then (History.fresh_id t.history, History.tick t.history)
  else (-1, 0)

let finish_update t u ~session ~reads (outcome : _ Primary.outcome) =
  match outcome with
  | Primary.Committed { txn; commit_ts; snapshot; writes; _ } ->
    Session.note_update_commit t.sessions ~label:session ~commit_ts;
    let id, finished = finish_tick t in
    let now = t.now () in
    Session.clock_note t.clock ~commit_ts ~at:now;
    if Flight.enabled t.sinks.flight then
      Flight.note_commit t.sinks.flight ~txn ~hid:id ~commit_ts
        ~updates:(List.length writes);
    if t.tracking then
      end_update t u ~id ~finished ~now ~session
        ~commit:(Some (commit_ts, writes))
        ~snapshot ~reads
  | Primary.Aborted _ ->
    if t.tracking then begin
      let id, finished = finish_tick t in
      end_update t u ~id ~finished ~now:(t.now ()) ~session ~commit:None
        ~snapshot:Timestamp.zero ~reads
    end

let begin_read ?fence t ~session ~site ~snapshot =
  if Obs.enabled t.sinks.obs then begin
    let age, missed =
      Session.clock_freshness t.clock ~snapshot ~now:(t.now ())
    in
    let f = freshness t site in
    Obs.observe f.read_age age;
    Obs.observe f.read_missed (float_of_int missed);
    Obs.set_gauge f.missed_commits (float_of_int missed)
  end;
  Session.note_read ?fence t.sessions ~label:session ~snapshot;
  if not t.tracking then untracked
  else
    tracked t
      (Option.map (fun w -> Watchdog.begin_read w ~session ~snapshot) t.watchdog)

let finish_read ?fence t r ~session ~site ~snapshot ~read_at ~fence_seq ~reads
    =
  let id, finished = finish_tick t in
  if Flight.enabled t.sinks.flight then
    Flight.note_read t.sinks.flight ~site ~hid:id ~session ~snapshot
      ~fence:fence_seq;
  if t.tracking then begin
    let fence = Option.map (fun claim -> { History.claim; read_at }) fence in
    (match (t.watchdog, r.token) with
    | Some w, Some tok ->
      Watchdog.end_read ?fence w tok ~id ~site ~now:(t.now ()) ~reads
    | _ -> ());
    if t.record_history then
      History.add t.history
        {
          History.id;
          session;
          kind = History.Read_only;
          site;
          first_op = r.first_op;
          finished;
          snapshot;
          commit_ts = None;
          reads;
          writes = [];
          fence;
        }
  end
