open Lsr_storage

exception Unsatisfiable_read of {
  secondary : int;
  required : Timestamp.t;
  available : Timestamp.t;
  pumps : int;
}

exception Secondary_down of { secondary : int }
exception Pump_stalled of { ticks : int }

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
    | Pump_stalled { ticks } ->
      Some
        (Printf.sprintf
           "System.Pump_stalled(fault channels still busy after %d ticks)" ticks)
    | _ -> None)

type t = {
  core : Replica_set.t;
  schema : (string * string list) list;
  mutable next_client : int;
  mutable blocked_reads : int;
}

type client = { label : string; secondary : int }

let create ?(secondaries = 1) ?(schema = []) ?faults
    ?(obs = Lsr_obs.Obs.null) ?(flight = Lsr_obs.Flight.null)
    ?(watchdog = false) ~guarantee () =
  if secondaries < 1 then invalid_arg "System.create: need at least 1 secondary";
  let core =
    Replica_set.create
      ~on_refresh_commit:(fun _ _ _ -> ())
      ~on_read:(fun _ ~age:_ ~missed:_ -> ())
      ~faults ~ship_aborted:false
      ~sinks:{ Lsr_obs.Sinks.obs; flight }
      ~record_history:true ~watchdog ~sites:secondaries guarantee
  in
  {
    core;
    schema;
    next_client = 0;
    blocked_reads = 0;
  }

let sessions t = Replica_set.sessions t.core
let primary t = Replica_set.primary t.core
let primary_db t = Primary.db (primary t)
let secondaries t = Replica_set.sites t.core

let site t i =
  if i < 0 || i >= secondaries t then
    invalid_arg (Printf.sprintf "System: no secondary %d" i);
  i

let secondary t i = Replica_set.secondary t.core (site t i)
let secondary_db t i = Secondary.db (secondary t i)
let is_crashed t i = Replica_set.is_crashed t.core (site t i)
let channel_stats t = Replica_set.channel_stats t.core
let history t = Replica_set.history t.core

(* The embedded system has no virtual time; the history event counter is its
   commit clock's time axis, so [Max_age] fences are measured in "events
   ago". *)
let commit_clock t = Replica_set.clock t.core
let watchdog t = Replica_set.watchdog t.core

let connect t ?secondary label =
  let secondary =
    match secondary with
    | Some i -> site t i
    | None ->
      let i = t.next_client mod secondaries t in
      t.next_client <- t.next_client + 1;
      i
  in
  { label; secondary }

let client_secondary c = c.secondary

(* Move a session to another secondary (load balancing / failover). The
   label is preserved, so its ordering constraints travel with it — this is
   exactly where strong session SI and PCSI diverge. *)
let migrate t client secondary = { client with secondary = site t secondary }

(* --- Replication control -------------------------------------------------- *)

let propagate t =
  let records = Propagation.poll (Replica_set.propagator t.core) in
  if records <> [] then
    Replica_set.broadcast t.core records ~direct:(fun i records ->
        List.iter (Secondary.enqueue (secondary t i)) records);
  List.length records

(* With a fault channel attached, one refresh advances the channel by one
   tick (delivering whatever arrives in order) before draining the refresh
   machinery; without one, records were enqueued directly by [propagate]. *)
let refresh_one t i =
  if is_crashed t i then 0
  else begin
    ignore (Replica_set.deliver t.core i);
    Secondary.drain (secondary t i)
  end

let refresh_all t =
  List.init (secondaries t) (refresh_one t) |> List.fold_left ( + ) 0

(* Bound on channel ticks per pump: retransmission makes delivery certain
   (loss < 1), but a pathological fault configuration could still take many
   ticks; failing loudly beats spinning forever. *)
let pump_tick_cap = 200_000

let pump t =
  ignore (propagate t);
  ignore (refresh_all t);
  let ticks = ref 0 in
  while not (Replica_set.channels_idle t.core) do
    incr ticks;
    if !ticks > pump_tick_cap then raise (Pump_stalled { ticks = !ticks });
    ignore (refresh_all t)
  done

let blocked_reads t = t.blocked_reads

let compact t =
  Wal.truncate_before
    (Primary.wal (primary t))
    (Propagation.position (Replica_set.propagator t.core));
  let vacuum db = Mvcc.vacuum db ~before:(Mvcc.latest_commit_ts db) in
  List.fold_left
    (fun n i -> if is_crashed t i then n else n + vacuum (secondary_db t i))
    (vacuum (primary_db t))
    (List.init (secondaries t) Fun.id)

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
  | Primary.Committed { value; _ } -> Ok value
  | Primary.Aborted reason -> Error reason

(* [required] is the seq floor the read was held to; the flight recorder
   notes it as the read's fence claim (-1 when unfenced). *)
let run_read ?fence t client sec ~required body =
  let db = Secondary.db sec in
  let site = client.secondary in
  let session = client.label in
  let read_at = Replica_set.now t.core in
  let snapshot = Secondary.seq_dbsec sec in
  let txn = Replica_set.begin_read ?fence t.core ~session ~site ~snapshot in
  let mvcc_txn = Mvcc.begin_txn db in
  let h = Handle.make ~schema:t.schema db mvcc_txn in
  let value = body h in
  Mvcc.end_read db mvcc_txn;
  let fence_seq = match fence with None -> -1 | Some _ -> required in
  Replica_set.finish_read ?fence t.core txn ~session ~site ~snapshot ~read_at
    ~fence_seq ~reads:(Handle.reads h);
  value

(* The seq(DBsec) threshold this read needs, evaluated once: nothing moves
   seq(c) while a blocked read pumps, so retrying keeps the same target. *)
let required_for ?fence t client =
  Session.read_threshold ?fence (sessions t) ~clock:(commit_clock t)
    ~now:(Replica_set.now t.core) ~label:client.label ()

(* Bound on pump rounds in a blocked read. Each pump drives the fault
   channels to quiescence, so commits already in the primary log arrive in
   one round; the bound exists for fences demanding a commit that does not
   exist yet ([Exact] in the future), where no amount of pumping helps. *)
let max_read_pumps = 4

let read ?fence t client body =
  if is_crashed t client.secondary then
    raise (Secondary_down { secondary = client.secondary });
  let required = required_for ?fence t client in
  (* A pump never replaces a live site's replica. *)
  let sec = secondary t client.secondary in
  let satisfied () = Timestamp.compare required (Secondary.seq_dbsec sec) <= 0 in
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
             available = Secondary.seq_dbsec sec;
             pumps = !pumps;
           })
  end;
  run_read ?fence t client sec ~required body

let read_nowait ?fence t client body =
  (* A crashed target is "cannot serve this read now" — the [None] case of
     the contract, not an exception. *)
  if is_crashed t client.secondary then None
  else
    let required = required_for ?fence t client in
    let sec = secondary t client.secondary in
    if Timestamp.compare required (Secondary.seq_dbsec sec) <= 0 then
      Some (run_read ?fence t client sec ~required body)
    else None

(* --- Failures -------------------------------------------------------------- *)

let crash_secondary t i = Replica_set.crashed t.core (site t i)

let recover_secondary t i =
  if not (is_crashed t i) then
    invalid_arg "System.recover_secondary: not crashed";
  (* Quiesce propagation first: any primary commit not yet polled would be
     included in the backup below AND broadcast later, and re-executing it at
     the recovered site would briefly move seq(DBsec) backwards — a read in
     that window would observe a state newer than its recorded snapshot.
     Consuming the log up to the backup point makes backup and propagation
     cursor agree ("quiesced copy", §3.4). *)
  ignore (propagate t);
  (* Install a quiesced copy of the primary database (§3.4), shipped in its
     serialized backup form, and reinitialize seq(DBsec) to the primary's
     latest commit, the state §4's dummy transaction would see. No dummy is
     run: its start record would open a refresh at every live secondary
     that no commit or abort record ever closes. *)
  let backup = Mvcc.serialize (primary_db t) in
  let seq = Mvcc.latest_commit_ts (primary_db t) in
  Replica_set.recovered t.core i ~backup ~seq

(* --- Verification ----------------------------------------------------------- *)

let check t =
  match Replica_set.check t.core with [], _ -> Ok () | es, _ -> Error es
