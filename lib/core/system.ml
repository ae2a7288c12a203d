open Lsr_storage

type channel = {
  ch_send : Txn_record.t list -> unit;
  ch_tick : unit -> Txn_record.t list;
  ch_idle : unit -> bool;
  ch_reset : unit -> unit;
}

type slot = {
  mutable site : Secondary.t;
  mutable crashed : bool;
  (* False once the site has crashed: its state sequence is no longer a
     prefix of the primary's, so only final-state equality can be checked. *)
  mutable clean : bool;
  channel : channel option;
}

exception Unsatisfiable_read of {
  secondary : int;
  required : Timestamp.t;
  available : Timestamp.t;
  pumps : int;
}

exception Secondary_down of { secondary : int }

let () =
  Printexc.register_printer (function
    | Unsatisfiable_read { secondary; required; available; pumps } ->
      Some
        (Printf.sprintf
           "System.Unsatisfiable_read(secondary %d: needs seq %d, has %d \
            after %d pumps)"
           secondary required available pumps)
    | Secondary_down { secondary } ->
      Some (Printf.sprintf "System.Secondary_down(secondary %d is down)" secondary)
    | _ -> None)

type t = {
  core : Replica_set.t;
  slots : slot array;
  schema : (string * string list) list;
  c_commits : Lsr_obs.Obs.counter;
  c_aborts : Lsr_obs.Obs.counter;
  c_reads : Lsr_obs.Obs.counter;
  mutable next_client : int;
  mutable blocked_reads : int;
}

type client = { label : string; secondary : int }

let create ?(secondaries = 1) ?(schema = []) ?faults
    ?(obs = Lsr_obs.Obs.null) ?(lineage = Lsr_obs.Lineage.null)
    ?(flight = Lsr_obs.Flight.null) ?(watchdog = false) ~guarantee () =
  if secondaries < 1 then invalid_arg "System.create: need at least 1 secondary";
  let sinks = { Lsr_obs.Sinks.obs; lineage; flight } in
  let core =
    Replica_set.create ~ship_aborted:false ~sinks ~record_history:true
      ~watchdog ~sites:secondaries guarantee
  in
  let make_slot i =
    {
      site = Replica_set.secondary core i;
      crashed = false;
      clean = true;
      channel = Option.map (fun f -> f sinks i) faults;
    }
  in
  {
    core;
    slots = Array.init secondaries make_slot;
    schema;
    c_commits = Lsr_obs.Obs.counter obs "system.update_commits";
    c_aborts = Lsr_obs.Obs.counter obs "system.update_aborts";
    c_reads = Lsr_obs.Obs.counter obs "system.reads";
    next_client = 0;
    blocked_reads = 0;
  }

let sessions t = Replica_set.sessions t.core
let guarantee t = Session.guarantee (sessions t)
let primary t = Replica_set.primary t.core
let primary_db t = Primary.db (primary t)
let secondaries t = Array.length t.slots

let slot t i =
  if i < 0 || i >= Array.length t.slots then
    invalid_arg (Printf.sprintf "System: no secondary %d" i);
  t.slots.(i)

let secondary t i = (slot t i).site
let secondary_db t i = Secondary.db (slot t i).site
let history t = Replica_set.history t.core

(* The embedded system has no virtual time; the history event counter is its
   commit clock's time axis, so [Max_age] fences are measured in "events
   ago". *)
let commit_clock t = Replica_set.clock t.core
let watchdog t = Replica_set.watchdog t.core

let connect t ?secondary label =
  let secondary =
    match secondary with
    | Some i ->
      ignore (slot t i);
      i
    | None ->
      let i = t.next_client mod Array.length t.slots in
      t.next_client <- t.next_client + 1;
      i
  in
  { label; secondary }

let client_label c = c.label
let client_secondary c = c.secondary

(* Move a session to another secondary (load balancing / failover). The
   label is preserved, so its ordering constraints travel with it — this is
   exactly where strong session SI and PCSI diverge. *)
let migrate t client secondary =
  ignore (slot t secondary);
  { client with secondary }

(* --- Replication control -------------------------------------------------- *)

let propagate t =
  let records = Propagation.poll (Replica_set.propagator t.core) in
  if records <> [] then
    Array.iter
      (fun s ->
        if not s.crashed then
          match s.channel with
          | None -> List.iter (Secondary.enqueue s.site) records
          | Some ch -> ch.ch_send records)
      t.slots;
  List.length records

(* With a fault channel attached, one refresh advances the channel by one
   tick (delivering whatever arrives in order) before draining the refresh
   machinery; without one, records were enqueued directly by [propagate]. *)
let refresh_one t i =
  let s = slot t i in
  if s.crashed then 0
  else begin
    (match s.channel with
    | None -> ()
    | Some ch -> List.iter (Secondary.enqueue s.site) (ch.ch_tick ()));
    Secondary.drain s.site
  end

let refresh_all t =
  Array.to_list t.slots
  |> List.mapi (fun i _ -> refresh_one t i)
  |> List.fold_left ( + ) 0

let channels_busy t =
  Array.exists
    (fun s ->
      (not s.crashed)
      && match s.channel with Some ch -> not (ch.ch_idle ()) | None -> false)
    t.slots

(* Bound on channel ticks per pump: retransmission makes delivery certain
   (loss < 1), but a pathological fault configuration could still take many
   ticks; failing loudly beats spinning forever. *)
let pump_tick_cap = 200_000

let pump t =
  ignore (propagate t);
  ignore (refresh_all t);
  let ticks = ref 0 in
  while channels_busy t do
    incr ticks;
    if !ticks > pump_tick_cap then
      failwith "System.pump: fault channels failed to quiesce";
    ignore (refresh_all t)
  done

let blocked_reads t = t.blocked_reads

let compact t =
  Wal.truncate_before
    (Primary.wal (primary t))
    (Propagation.position (Replica_set.propagator t.core));
  let reclaimed = ref 0 in
  let vacuum_db db =
    reclaimed := !reclaimed + Mvcc.vacuum db ~before:(Mvcc.latest_commit_ts db)
  in
  vacuum_db (primary_db t);
  Array.iter (fun s -> if not s.crashed then vacuum_db (Secondary.db s.site)) t.slots;
  !reclaimed

(* --- Transactions ---------------------------------------------------------- *)

let update t client ?force_abort body =
  let session = client.label in
  let txn = Replica_set.begin_update t.core ~session in
  let handle_ref = ref None in
  let wrapped db mvcc_txn =
    let h = Handle.make ~schema:t.schema db mvcc_txn in
    handle_ref := Some h;
    body h
  in
  let outcome = Primary.execute (primary t) ?force_abort wrapped in
  let reads = match !handle_ref with Some h -> Handle.reads h | None -> [] in
  Replica_set.finish_update t.core txn ~session ~reads outcome;
  match outcome with
  | Primary.Committed { value; _ } ->
    Lsr_obs.Obs.incr t.c_commits;
    Ok value
  | Primary.Aborted reason ->
    Lsr_obs.Obs.incr t.c_aborts;
    Error reason

(* [required] is the seq floor the read was held to; the flight recorder
   notes it as the read's fence claim (-1 when unfenced). *)
let run_read ?fence t client s ~required body =
  Lsr_obs.Obs.incr t.c_reads;
  let db = Secondary.db s.site in
  let site = Secondary.name s.site in
  let session = client.label in
  let read_at = Replica_set.now t.core in
  let snapshot = Secondary.seq_dbsec s.site in
  let txn = Replica_set.begin_read ?fence t.core ~session ~site ~snapshot in
  let mvcc_txn = Mvcc.begin_txn db in
  let h = Handle.make ~schema:t.schema db mvcc_txn in
  let value = body h in
  Mvcc.end_read db mvcc_txn;
  let fence_seq = match fence with None -> -1 | Some _ -> required in
  Replica_set.finish_read ?fence t.core txn ~session ~site ~snapshot ~read_at
    ~fence_seq ~reads:(Handle.reads h);
  value

(* The seq(DBsec) threshold this read needs. A [Max_age] fence resolves its
   visibility horizon here, once — the Minnal per-statement horizon [B] —
   so retrying the same read keeps the same target. *)
let required_for ?fence t client =
  Session.required_seq ?fence ~clock:(commit_clock t)
    ~now:(Replica_set.now t.core) (sessions t) ~label:client.label

(* Bound on pump rounds in a blocked read. Each pump drives the fault
   channels to quiescence, so commits already in the primary log arrive in
   one round; the bound exists for fences demanding a commit that does not
   exist yet ([Exact] in the future), where no amount of pumping helps. *)
let max_read_pumps = 4

let read ?fence t client body =
  let s = slot t client.secondary in
  if s.crashed then raise (Secondary_down { secondary = client.secondary });
  let required = required_for ?fence t client in
  let satisfied () =
    Timestamp.compare required (Secondary.seq_dbsec s.site) <= 0
  in
  if not (satisfied ()) then begin
    t.blocked_reads <- t.blocked_reads + 1;
    (* Waiting for lazy replication to catch up: in the embedded system this
       means driving propagation and refresh ourselves. With a lossy channel
       a single propagate-and-refresh round is not guaranteed to deliver
       everything, so retry up to the bound and raise a typed error — not a
       bare [failwith] — only once the bound is exhausted. *)
    let pumps = ref 0 in
    while (not (satisfied ())) && !pumps < max_read_pumps do
      incr pumps;
      pump t
    done;
    if not (satisfied ()) then
      raise
        (Unsatisfiable_read
           {
             secondary = client.secondary;
             required;
             available = Secondary.seq_dbsec s.site;
             pumps = !pumps;
           })
  end;
  run_read ?fence t client s ~required body

let read_nowait ?fence t client body =
  (* A crashed target is "cannot serve this read now" — the [None] case of
     the contract, not an exception. *)
  let s = slot t client.secondary in
  if s.crashed then None
  else
    let required = required_for ?fence t client in
    if Timestamp.compare required (Secondary.seq_dbsec s.site) <= 0 then
      Some (run_read ?fence t client s ~required body)
    else None

(* --- Failures -------------------------------------------------------------- *)

let crash_secondary t i =
  let s = slot t i in
  s.crashed <- true;
  s.clean <- false;
  Replica_set.crashed t.core i;
  (* The site's connection state dies with it: messages in flight to it are
     lost and both endpoints' sequence numbers restart on recovery. *)
  Option.iter (fun ch -> ch.ch_reset ()) s.channel

let recover_secondary t i =
  let s = slot t i in
  if not s.crashed then invalid_arg "System.recover_secondary: not crashed";
  (* Quiesce propagation first: any primary commit not yet polled would be
     included in the backup below AND broadcast later, and re-executing it at
     the recovered site would briefly move seq(DBsec) backwards — a read in
     that window would observe a state newer than its recorded snapshot.
     Consuming the log up to the backup point makes backup and propagation
     cursor agree ("quiesced copy", §3.4). *)
  ignore (propagate t);
  (* Install a quiesced copy of the primary database (§3.4), shipped in its
     serialized backup form... *)
  let backup = Mvcc.serialize (primary_db t) in
  let fresh = Replica_set.secondary ~backup t.core i in
  (* ... and reinitialize seq(DBsec) from a dummy transaction's view of the
     primary's latest committed state (§4). *)
  let dummy = Mvcc.begin_txn (primary_db t) in
  let seed = Mvcc.latest_commit_ts (primary_db t) in
  Mvcc.end_read (primary_db t) dummy;
  Secondary.reseed_seq fresh seed;
  Replica_set.recovered t.core i ~seq:seed;
  Option.iter (fun ch -> ch.ch_reset ()) s.channel;
  s.site <- fresh;
  s.crashed <- false

let is_crashed t i = (slot t i).crashed

(* --- Verification ----------------------------------------------------------- *)

let check t =
  let errors = ref [] in
  let add_error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun i s ->
      if not s.crashed then
        if s.clean then begin
          match
            Checker.check_completeness ~primary:(primary_db t)
              ~secondary:(Secondary.db s.site)
          with
          | Ok () -> ()
          | Error e -> add_error "secondary %d: %s" i e
        end
        else begin
          (* Recovered site: its history is not a prefix, but once fully
             refreshed its state must match the primary's current state. *)
          let primary = primary_db t in
          if
            Secondary.update_queue_length s.site = 0
            && not
                 (Checker.same_state primary
                    ~at:(Mvcc.latest_commit_ts primary)
                    (Secondary.db s.site))
          then add_error "recovered secondary %d diverges from primary" i
        end)
    t.slots;
  let report = Checker.analyze ~clock:(commit_clock t) (history t) in
  List.iter (fun v -> add_error "weak SI violation: %s" v) report.weak_si_violations;
  List.iter (fun v -> add_error "%s" v) report.fence_violations;
  if not (Checker.satisfies (guarantee t) report) then begin
    let offending =
      match guarantee t with
      | Session.Strong -> report.inversions_all
      | Session.Prefix_consistent -> report.inversions_after_update
      | Session.Strong_session | Session.Weak -> report.inversions_in_session
    in
    List.iter
      (fun inv ->
        add_error "inversion under %s: %s"
          (Session.guarantee_name (guarantee t))
          (Format.asprintf "%a" Checker.pp_inversion inv))
      offending
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
