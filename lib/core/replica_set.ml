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

(* What carries propagated batches to one secondary: the paper's reliable
   FIFO channel, batch by batch, or a fault channel. *)
type link = Plain of Wal.entry list Queue.t | Faulty of Channel.t

(* One secondary site: its replica, its link, and the instruments its moves
   feed, interned once, so a recovered replica counts into them too.
   [freshness] is forced on the site's first sample into an attached
   registry. *)
type site = {
  name : string;
  fid : int;  (* its flight recorder id *)
  mutable replica : Secondary.t;
  link : link;
  mutable crashed : bool;
  (* False once the site has crashed: a recovered copy's restored state is
     audited against the primary's at the end of the run. *)
  mutable clean : bool;
  (* The first primary txn after whose refresh commit one of the site's
     copies diverged ({!Secondary.diverged}); -1 while none has. Kept here,
     not on the copy, so a [Recover] that replaces the copy keeps it. *)
  mutable diverged : int;
  c_started : Obs.counter;
  c_aborted : Obs.counter;
  g_update_queue : Obs.gauge;
  g_pending : Obs.gauge;
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
  tracking : bool;  (* a history is recorded or a watchdog attached *)
  no_reads : History.reads;
  schema : (string * string list) list;
  sinks : Sinks.t;
  now : unit -> float;
  on_read : int -> age:float -> missed:int -> unit;
  on_refresh_commit : int -> Timestamp.t -> float option -> unit;
  c_polls : Obs.counter;
  c_shipped : Obs.counter;
  g_in_flight : Obs.gauge;
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

let create ?now ?(schema = []) ~on_refresh_commit ~on_read ~faults ~ship_aborted ~sinks
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
  let primary = Primary.create () in
  let clock = Session.clock_create () in
  let watchdog =
    if watchdog then
      Some (Watchdog.create ~flight:sinks.flight ~clock ~guarantee ~sites ())
    else None
  in
  let propagator = Propagation.create ~ship_aborted (Primary.wal primary) in
  let obs = sinks.obs in
  (* Every channel draws its own stream, split from the fault seed in site
     order, so a whole fault schedule replays from one seed. *)
  let link =
    match faults with
    | None -> fun _ -> Plain (Queue.create ())
    | Some (config, seed) ->
      let rng = Lsr_sim.Rng.create seed in
      fun site ->
        Faulty
          (Channel.create ~config ~recorder:sinks.flight ~site
             ~rng:(Lsr_sim.Rng.split rng) ())
  in
  let make_site i =
    let name = Printf.sprintf "secondary-%d" i in
    let fid = Flight.intern sinks.flight name in
    { name; fid; replica = Secondary.create (); link = link fid;
      crashed = false; clean = true; diverged = -1;
      c_started = Obs.counter obs (name ^ ".refresh_started");
      c_aborted = Obs.counter obs (name ^ ".refresh_aborted");
      g_update_queue = Obs.gauge obs (name ^ ".update_queue_depth");
      g_pending = Obs.gauge obs (name ^ ".pending_depth");
      freshness = lazy (freshness obs name) }
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
    no_reads = History.reads ();
    schema;
    sinks;
    now;
    on_read;
    on_refresh_commit;
    c_polls = Obs.counter obs "propagation.polls";
    c_shipped = Obs.counter obs "propagation.records_shipped";
    g_in_flight = Obs.gauge obs "propagation.in_flight";
    sites;
  }

let primary t = t.primary
let propagator t = t.propagator
let sessions t = t.sessions
let clock t = t.clock
let history t = t.history
let watchdog t = t.watchdog

(* --- Secondaries ------------------------------------------------------------- *)

let sites t = Array.length t.sites
let site_name t i = t.sites.(i).name
let secondary t i = t.sites.(i).replica
let is_crashed t i = t.sites.(i).crashed

let faulty t =
  Array.exists
    (fun s -> match s.link with Faulty _ -> true | Plain _ -> false)
    t.sites

let channel_stats t =
  Array.fold_left
    (fun acc s ->
      match s.link with
      | Faulty ch -> Channel.add_stats acc (Channel.stats ch)
      | Plain _ -> acc)
    Channel.zero_stats t.sites

(* --- Moves ------------------------------------------------------------------------ *)

type action =
  | Poll
  | Deliver of int
  | Refresh of int
  | Commit of int
  | Crash of int
  | Recover of int

type fired =
  | Shipped of int
  | Started
  | Dispatched of int
  | Aborted of int
  | Committed of Timestamp.t
  | Nothing

let poll_ready t =
  Wal.length (Primary.wal t.primary) > Propagation.position t.propagator

let link_busy = function
  | Plain q -> not (Queue.is_empty q)
  | Faulty ch -> not (Channel.idle ch)

(* The site's connection state dies with it: messages in flight to it are
   lost and both endpoints' sequence numbers restart on recovery. *)
let reset_link = function Plain q -> Queue.clear q | Faulty ch -> Channel.reset ch

let enabled t =
  let moves = ref [] in
  for i = Array.length t.sites - 1 downto 0 do
    let s = t.sites.(i) in
    if not s.crashed then begin
      if Secondary.pending_queue_length s.replica > 0 then
        moves := Commit i :: !moves;
      if Secondary.refresher_ready s.replica then moves := Refresh i :: !moves;
      if link_busy s.link then moves := Deliver i :: !moves
    end
  done;
  if poll_ready t then Poll :: !moves else !moves

let note_update_queue s =
  Obs.set_gauge s.g_update_queue
    (float_of_int (Secondary.update_queue_length s.replica))

let note_pending s =
  Obs.set_gauge s.g_pending
    (float_of_int (Secondary.pending_queue_length s.replica))

(* A poll's records in the recorder: [Batched] when a transaction's start
   record is picked up, [Shipped] when its commit record leaves. *)
let note_shipped flight records =
  List.iter
    (function
      | Wal.Start { txn; _ } ->
        Flight.note_stage flight ~site:(-1) ~txn Flight.Batched ~record:(-1)
          (-1)
      | Wal.Commit { txn; updates; _ } ->
        Flight.note_stage flight ~site:(-1) ~txn Flight.Shipped ~record:(-1)
          (List.length updates)
      | Wal.Abort _ -> ())
    records

(* A refresh commit of [ts] at site [i] measures its lag once (none for a
   commit that is not on the clock), hands it to the driver's hook and to an
   attached registry, then advances the watchdog's horizon. *)
let refresh_committed t i s ts =
  let lag =
    match Session.clock_time_of t.clock ts with
    | Some committed_at -> Some (t.now () -. committed_at)
    | None -> None
  in
  t.on_refresh_commit i ts lag;
  (match lag with
  | Some lag when Obs.enabled t.sinks.obs ->
    Obs.observe (Lazy.force s.freshness).refresh_lag lag
  | Some _ | None -> ());
  note_refresh t.watchdog i ts

let diverged_detail i txn =
  Printf.sprintf "secondary %d: state after primary txn %d differs from the \
    primary's" i txn

let rec fire t = function
  | Poll -> (
    let records = Propagation.poll t.propagator in
    let n = List.length records in
    if Flight.enabled t.sinks.flight then note_shipped t.sinks.flight records;
    Obs.incr t.c_polls;
    Obs.incr t.c_shipped ~by:n;
    Obs.set_gauge t.g_in_flight
      (float_of_int (Propagation.in_flight t.propagator));
    match records with
    | [] -> Nothing
    | records ->
      Array.iter
        (fun s ->
          if not s.crashed then
            match s.link with
            | Plain q -> Queue.add records q
            | Faulty ch -> Channel.send ch records)
        t.sites;
      Shipped n)
  | Deliver i -> (
    let s = t.sites.(i) in
    let records =
      if s.crashed then []
      else
        match s.link with
        | Plain q -> Option.value (Queue.take_opt q) ~default:[]
        | Faulty ch -> Channel.tick ch
    in
    match records with
    | [] -> Nothing
    | records ->
      List.iter
        (fun record ->
          Secondary.enqueue s.replica record;
          (match record with
          | Wal.Commit { txn; _ } ->
            Flight.note_stage t.sinks.flight ~site:s.fid ~txn Flight.Enqueued
              ~record:(-1) (-1)
          | Wal.Start _ | Wal.Abort _ -> ());
          note_update_queue s)
        records;
      Shipped (List.length records))
  | Refresh i when t.sites.(i).crashed -> Nothing
  | Refresh i -> (
    let s = t.sites.(i) in
    match Secondary.refresher_step s.replica with
    | Secondary.Started txn ->
      note_update_queue s;
      Flight.note_stage t.sinks.flight ~site:s.fid ~txn Flight.Refresh_started
        ~record:(-1) (-1);
      Obs.incr s.c_started;
      Started
    | Secondary.Dispatched ops ->
      note_update_queue s;
      note_pending s;
      Dispatched ops
    | Secondary.Aborted writes ->
      note_update_queue s;
      Obs.incr s.c_aborted;
      Aborted writes
    | Secondary.Blocked_on_pending | Secondary.Idle -> Nothing)
  | Commit i ->
    let s = t.sites.(i) in
    let txn = if s.crashed then -1 else Secondary.commit_head s.replica in
    if txn < 0 then Nothing
    else begin
      let ts = Secondary.seq_dbsec s.replica in
      note_pending s;
      Flight.note_stage t.sinks.flight ~site:s.fid ~txn
        Flight.Refresh_committed ~record:(-1) ts;
      if Secondary.diverged s.replica = txn then begin
        if s.diverged < 0 then s.diverged <- txn;
        Flight.trigger t.sinks.flight ~reason:"completeness" ~txns:[ txn ]
          ~detail:(diverged_detail i txn) ()
      end;
      refresh_committed t i s ts;
      Committed ts
    end
  | Crash i ->
    let s = t.sites.(i) in
    if not s.crashed then begin
      s.crashed <- true;
      s.clean <- false;
      Flight.note_crash t.sinks.flight ~site:s.fid;
      reset_link s.link
    end;
    Nothing
  | Recover i ->
    let s = t.sites.(i) in
    if s.crashed then begin
      (* Quiesced: nothing the copy holds is shipped to the site again,
         and a txn in flight at the primary, whose start record the site
         missed, opens its refresh at its commit record. No §4 dummy
         transaction is run: its start record would open a refresh at every
         live site that nothing closes. The watchdog's horizon for the site
         jumps forward with its seq. *)
      if poll_ready t then ignore (fire t Poll);
      let db = Primary.db t.primary in
      let seq = Mvcc.latest_commit_ts db in
      let fresh =
        Secondary.create ~db:(Mvcc.restore (Mvcc.serialize db)) ~seq
          ~resumed_at:(Mvcc.next_txn_id db) ()
      in
      Flight.note_recovery t.sinks.flight ~site:s.fid ~seq;
      note_refresh t.watchdog i seq;
      reset_link s.link;
      s.replica <- fresh;
      s.crashed <- false
    end;
    Nothing

(* --- Transactions -------------------------------------------------------------- *)

(* An update runs at the primary ([site] -1); its snapshot is the state its
   current attempt started from. Its handle serves the MVCC transaction it
   opened, and its reads land in the handle's buffer when [tracking]; the
   untracked share the core's [no_reads], which is never written. *)
type txn = {
  token : Watchdog.token;
  first_op : int;
  session : string;
  site : int;
  mutable snapshot : Timestamp.t;
  fence : History.fence_claim option;
  fence_seq : int;
  mutable handle : Handle.t;
}

let handle txn = txn.handle

let begin_txn t ~session ~site ~snapshot ~fence ~fence_seq db mvcc =
  let first_op = if t.tracking then History.tick t.history else 0 in
  let token =
    match t.watchdog with
    | Some w when site >= 0 -> Watchdog.begin_read w ~session ~snapshot
    | Some w -> Watchdog.begin_update w ~session
    | None -> Watchdog.unwatched
  in
  { token; first_op; session; site; snapshot; fence; fence_seq;
    handle =
      Handle.make ~schema:t.schema ~tracked:t.tracking
        (if t.tracking then History.reads () else t.no_reads)
        db mvcc }

(* An attempt's snapshot is the primary's latest commit when it starts. *)
let begin_update t ~session =
  let db = Primary.db t.primary in
  let snapshot = Mvcc.latest_commit_ts db in
  begin_txn t ~session ~site:(-1) ~snapshot ~fence:None ~fence_seq:(-1) db
    (Primary.start t.primary)

let retry t u =
  let db = Primary.db t.primary in
  let reads = Handle.reads u.handle in
  if t.tracking then reads.count <- 0;
  u.snapshot <- Mvcc.latest_commit_ts db;
  u.handle <-
    Handle.make ~schema:t.schema ~tracked:t.tracking reads db
      (Primary.start t.primary)

(* Append [u]'s record. Each key read is the copy [db] holds (the driver's
   string only for a key [db] never installed), so the history keeps no key
   alive. *)
let record t u ~db ~id ~finished ~kind ~site ~snapshot ~commit_ts ~writes =
  let read_keys, read_values =
    History.recorded ~key:(Mvcc.stored_key db) (Handle.reads u.handle)
  in
  History.add t.history
    { History.id; session = u.session; kind; site;
      first_op = u.first_op; finished; snapshot; commit_ts;
      read_keys; read_values; writes; fence = u.fence }

let abandon t u =
  (* A read-only transaction's abort only ends it. *)
  let db =
    if u.site < 0 then Primary.db t.primary
    else Secondary.db t.sites.(u.site).replica
  in
  Mvcc.abort db (Handle.txn u.handle);
  match t.watchdog with Some w -> Watchdog.release w u.token | None -> ()

(* One id and finish tick per transaction, shared by the history record and
   the watchdog, so inversion witnesses are comparable across both; the id
   is drawn first. *)
let finish_id t = if t.tracking then History.fresh_id t.history else -1
let finish_tick t = if t.tracking then History.tick t.history else 0

(* The watchdog judges, and the history records, an update that committed
   [writes] at [commit] ([None] for an abort). *)
let finish_update t u ~id ~finished ~now ~snapshot ~commit ~writes =
  (match t.watchdog with
  | Some w ->
    Watchdog.end_update w u.token ~id ~now ~commit ~snapshot
      ~reads:(Handle.reads u.handle)
  | None -> ());
  if t.record_history then
    record t u ~db:(Primary.db t.primary) ~id ~finished ~kind:History.Update
      ~site:"primary" ~snapshot ~commit_ts:(Option.map fst commit) ~writes

let commit ?(force_abort = false) t u =
  let mvcc = Handle.txn u.handle in
  match Primary.finish t.primary ~force_abort mvcc with
  | Mvcc.Aborted reason -> Error reason
  | Mvcc.Committed commit_ts ->
    (* The updates the commit just installed, not computed again. *)
    let writes = Mvcc.pending_writes mvcc in
    let id = finish_id t in
    let finished = finish_tick t in
    let now = t.now () in
    Session.note_update_commit t.sessions ~label:u.session ~commit_ts;
    Session.clock_note t.clock ~commit_ts ~at:now;
    if Flight.enabled t.sinks.flight then
      Flight.note_commit t.sinks.flight ~txn:(Mvcc.txn_id mvcc) ~hid:id
        ~commit_ts ~updates:(List.length writes);
    if t.tracking then
      finish_update t u ~id ~finished ~now ~snapshot:u.snapshot
        ~commit:(Some (commit_ts, writes)) ~writes;
    Ok ()

(* An abort is judged and recorded at snapshot zero, and pins nothing. *)
let finish_aborted t u =
  let id = finish_id t in
  let finished = finish_tick t in
  if t.tracking then
    finish_update t u ~id ~finished ~now:(t.now ()) ~snapshot:Timestamp.zero
      ~commit:None ~writes:[]

let read_threshold ?fence t ~session =
  Session.read_threshold ?fence t.sessions ~clock:t.clock ~now:(t.now ())
    ~label:session

let begin_read ?fence ?read_at t ~session ~site ~required =
  (* Taken before the read raises its session's floor. *)
  let fence_seq = match fence with None -> -1 | Some _ -> required () in
  let replica = t.sites.(site).replica in
  let snapshot = Secondary.seq_dbsec replica in
  let age, missed = Session.clock_freshness t.clock ~snapshot ~now:(t.now ()) in
  t.on_read site ~age ~missed;
  if Obs.enabled t.sinks.obs then begin
    let f = Lazy.force t.sites.(site).freshness in
    Obs.observe f.read_age age;
    Obs.observe f.read_missed (float_of_int missed);
    Obs.set_gauge f.missed_commits (float_of_int missed)
  end;
  Session.note_read ?fence t.sessions ~label:session ~snapshot;
  let fence =
    match fence with
    | Some claim ->
      let read_at = Option.value read_at ~default:(t.now ()) in
      Some { History.claim; read_at }
    | None -> None
  in
  let db = Secondary.db replica in
  begin_txn t ~session ~site ~snapshot ~fence ~fence_seq db (Mvcc.begin_txn db)

let finish_read t r =
  let s = t.sites.(r.site) in
  (match Mvcc.end_read (Secondary.db s.replica) (Handle.txn r.handle) with
  | () -> ()
  | exception (Invalid_argument _ as exn) ->
    (* A body wrote through its handle: free its token, or the horizon stops. *)
    abandon t r;
    raise exn);
  let id = finish_id t in
  let finished = finish_tick t in
  Flight.note_read t.sinks.flight ~site:s.fid ~hid:id ~session:r.session
    ~snapshot:r.snapshot ~fence:r.fence_seq;
  if t.tracking then begin
    (match t.watchdog with
    | Some w ->
      Watchdog.end_read ?fence:r.fence w r.token ~id ~site:s.name
        ~now:(t.now ()) ~reads:(Handle.reads r.handle)
    | None -> ());
    if t.record_history then
      record t r ~db:(Secondary.db s.replica) ~id ~finished
        ~kind:History.Read_only ~site:s.name ~snapshot:r.snapshot
        ~commit_ts:None ~writes:[]
  end

(* --- Verdict --------------------------------------------------------------------- *)

let check t =
  let errors = ref [] in
  let add_error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let guarantee = Session.guarantee t.sessions in
  (* Theorem 3.1, checked at every refresh commit, recorded run or not. No
     digest checks a recovered copy's restored state: once refreshed up to
     the primary's latest commit, it must match the primary's state. *)
  let primary = Primary.db t.primary in
  let at = Mvcc.latest_commit_ts primary in
  Array.iteri
    (fun i s ->
      if s.diverged >= 0 then add_error "%s" (diverged_detail i s.diverged);
      if (not (s.crashed || s.clean))
         && Secondary.seq_dbsec s.replica >= at
         && not (Mvcc.same_state primary ~at (Secondary.db s.replica))
      then add_error "recovered secondary %d diverges from primary" i)
    t.sites;
  (* A recorded run is replayed into a fresh watchdog after the fact. *)
  let audit =
    if t.record_history then
      Some (Watchdog.replay ~clock:t.clock ~guarantee t.history)
    else None
  in
  (match audit with
  | Some w when (Watchdog.verdict w).Watchdog.alerts_total > 0 ->
    let v = Watchdog.verdict w in
    add_error
      "audit: guarantee %s violated: %d read mismatches, %d fence failures, \
       %d inversions; first %s"
      (Session.guarantee_name guarantee)
      v.Watchdog.read_mismatches v.Watchdog.fence_failures
      (v.Watchdog.alerts_total - v.Watchdog.read_mismatches
     - v.Watchdog.fence_failures)
      (Format.asprintf "%a" Watchdog.pp_alert (List.hd (Watchdog.alerts w)))
  | Some _ | None -> ());
  (match Option.map Watchdog.verdict t.watchdog with
  | Some v when v.Watchdog.alerts_total > 0 ->
    add_error "watchdog: guarantee %s violated (%d alerts)"
      (Session.guarantee_name guarantee)
      v.Watchdog.alerts_total
  | Some _ | None -> ());
  (List.rev !errors, Option.map Watchdog.verdict audit)
