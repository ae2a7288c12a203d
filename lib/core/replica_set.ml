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

(* One secondary site. [hook] is the replica's whole refresh-commit hook,
   kept so a recovered replica gets the same one. [freshness] is forced on
   the site's first sample into an attached registry. *)
type site = {
  name : string;
  mutable replica : Secondary.t;
  hook : Timestamp.t -> unit;
  channel : Channel.t option;
  mutable crashed : bool;
  (* False once the site has crashed: its state sequence is no longer a
     prefix of the primary's, so only final-state equality can be checked. *)
  mutable clean : bool;
  freshness : freshness Lazy.t;
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
  on_read : int -> age:float -> missed:int -> unit;
  sites : site array;
}

let freshness obs site =
  {
    read_age = Obs.histogram obs (site ^ ".read_age");
    read_missed = Obs.histogram obs (site ^ ".read_missed");
    missed_commits = Obs.gauge obs (site ^ ".missed_commits");
    refresh_lag = Obs.histogram obs (site ^ ".refresh_lag");
  }

let note_refresh watchdog i seq =
  match watchdog with
  | Some w -> Watchdog.note_refresh w ~site:i ~seq
  | None -> ()

let create ?now ~on_refresh_commit ~on_read ~faults ~ship_aborted ~sinks
    ~record_history ~watchdog ?(history = History.create ()) ~sites guarantee =
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
  let primary = Primary.create ~commit_log:record_history () in
  let clock = Session.clock_create () in
  let watchdog =
    if watchdog then
      Some (Watchdog.create ~flight:sinks.flight ~clock ~guarantee ~sites ())
    else None
  in
  let propagator =
    Propagation.create ~ship_aborted ~sinks (Primary.wal primary)
  in
  (* Every channel draws its own stream, split from the fault seed in site
     order, so a whole fault schedule replays from one seed. *)
  let channel =
    match faults with
    | None -> fun _ -> None
    | Some (config, seed) ->
      let rng = Lsr_sim.Rng.create seed in
      fun name ->
        Some (Channel.create ~config ~sinks ~name ~rng:(Lsr_sim.Rng.split rng) ())
  in
  let make_site i =
    let name = Printf.sprintf "secondary-%d" i in
    let on_refresh_commit = on_refresh_commit i in
    let freshness = lazy (freshness sinks.obs name) in
    (* Each refresh commit measures its lag once (none for a commit that is
       not on the clock), hands it to the driver's hook and to an attached
       registry, then advances the watchdog's horizon. *)
    let hook ts =
      let lag =
        match Session.clock_time_of clock ts with
        | Some committed_at -> Some (now () -. committed_at)
        | None -> None
      in
      on_refresh_commit ts lag;
      (match lag with
      | Some lag when Obs.enabled sinks.obs ->
        Obs.observe (Lazy.force freshness).refresh_lag lag
      | Some _ | None -> ());
      note_refresh watchdog i ts
    in
    let replica =
      Secondary.create ~name ~sinks ~on_refresh_commit:hook
        ~db:(Mvcc.create ~commit_log:record_history ()) ()
    in
    { name; replica; hook; channel = channel name; crashed = false;
      clean = true; freshness }
  in
  let sites = Array.init sites make_site in
  {
    primary;
    propagator;
    sessions = Session.create guarantee;
    clock;
    history;
    record_history;
    watchdog;
    tracking = record_history || watchdog <> None;
    sinks;
    now;
    on_read;
    sites;
  }

let primary t = t.primary
let propagator t = t.propagator
let sessions t = t.sessions
let clock t = t.clock
let history t = t.history
let watchdog t = t.watchdog
let now t = t.now ()
let tracking t = t.tracking

(* --- Secondaries ------------------------------------------------------------- *)

let sites t = Array.length t.sites
let secondary t i = t.sites.(i).replica
let is_crashed t i = t.sites.(i).crashed

let broadcast t records ~direct =
  Array.iteri
    (fun i s ->
      if not s.crashed then
        match s.channel with
        | Some ch -> Channel.send ch records
        | None -> direct i records)
    t.sites

let deliver t i =
  let s = t.sites.(i) in
  match s.channel with
  | Some ch when not s.crashed ->
    let records = Channel.tick ch in
    List.iter (Secondary.enqueue s.replica) records;
    records <> []
  | Some _ | None -> false

let channels_idle t =
  Array.for_all
    (fun s ->
      s.crashed || match s.channel with Some ch -> Channel.idle ch | None -> true)
    t.sites

let channel_stats t =
  Array.fold_left
    (fun acc s ->
      match s.channel with
      | Some ch -> Channel.add_stats acc (Channel.stats ch)
      | None -> acc)
    Channel.zero_stats t.sites

(* The site's connection state dies with it: messages in flight to it are
   lost and both endpoints' sequence numbers restart on recovery. *)
let crashed t i =
  let s = t.sites.(i) in
  s.crashed <- true;
  s.clean <- false;
  Flight.note_crash t.sinks.flight ~site:s.name;
  Option.iter Channel.reset s.channel

(* The recovered copy corresponds to primary state [seq]: the watchdog's
   per-site horizon jumps forward with it. *)
let recovered t i ~backup ~seq =
  let s = t.sites.(i) in
  let fresh =
    Secondary.create ~name:s.name ~sinks:t.sinks ~on_refresh_commit:s.hook
      ~db:(Mvcc.restore backup) ()
  in
  Secondary.reseed_seq fresh seq;
  Flight.note_recovery t.sinks.flight ~site:s.name ~seq;
  note_refresh t.watchdog i seq;
  Option.iter Channel.reset s.channel;
  s.replica <- fresh;
  s.crashed <- false

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
  let age, missed = Session.clock_freshness t.clock ~snapshot ~now:(t.now ()) in
  t.on_read site ~age ~missed;
  if Obs.enabled t.sinks.obs then begin
    let f = Lazy.force t.sites.(site).freshness in
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
  let site = t.sites.(site).name in
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

(* --- Verdict --------------------------------------------------------------------- *)

let check t =
  let errors = ref [] in
  let add_error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let guarantee = Session.guarantee t.sessions in
  let report =
    if not t.record_history then None
    else begin
      let primary = Primary.db t.primary in
      (* A live site that never crashed must be complete (Theorem 3.1). A
         recovered one's history is not a prefix, but once fully refreshed
         its state must match the primary's current state. *)
      Array.iteri
        (fun i s ->
          let db = Secondary.db s.replica in
          if s.crashed then ()
          else if s.clean then (
            match Checker.check_completeness ~primary ~secondary:db with
            | Ok () -> ()
            | Error e -> add_error "secondary %d: %s" i e)
          else if Secondary.update_queue_length s.replica = 0 then
            let at = Mvcc.latest_commit_ts primary in
            if not (Checker.same_state primary ~at db) then
              add_error "recovered secondary %d diverges from primary" i)
        t.sites;
      let report = Checker.analyze ~clock:t.clock t.history in
      List.iter (add_error "weak SI violation: %s") report.weak_si_violations;
      List.iter (add_error "%s") report.fence_violations;
      (match Checker.forbidden_inversions guarantee report with
      | [] -> ()
      | first :: _ as all ->
        add_error "guarantee %s violated: %d inversions, first %s"
          (Session.guarantee_name guarantee)
          (List.length all)
          (Format.asprintf "%a" Checker.pp_inversion first));
      Some report
    end
  in
  (match Option.map Watchdog.verdict t.watchdog with
  | Some v when v.Watchdog.alerts_total > 0 ->
    add_error "watchdog: guarantee %s violated (%d alerts)"
      (Session.guarantee_name guarantee)
      v.Watchdog.alerts_total
  | Some _ | None -> ());
  (List.rev !errors, report)
