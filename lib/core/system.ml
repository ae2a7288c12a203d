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
  (* The replication scheduler, on an engine whose clock never moves: a
     site serves every job at once, and each call drains the engine. *)
  eng : Lsr_sim.Engine.t;
  sched : Scheduler.t;
  mutable next_client : int;
  mutable blocked_reads : int;
}

type client = { label : string; secondary : int }

let create ?(secondaries = 1) ?schema ?faults
    ?(obs = Lsr_obs.Obs.null) ?(flight = Lsr_obs.Flight.null)
    ?(watchdog = false) ~guarantee () =
  if secondaries < 1 then invalid_arg "System.create: need at least 1 secondary";
  let core =
    Replica_set.create ?schema
      ~on_refresh_commit:(fun _ _ _ -> ())
      ~on_read:(fun _ ~age:_ ~missed:_ -> ())
      ~faults ~ship_aborted:false
      ~sinks:{ Lsr_obs.Sinks.obs; flight }
      ~record_history:true ~watchdog ~sites:secondaries guarantee
  in
  let eng = Lsr_sim.Engine.create () in
  let sched =
    Scheduler.create ~serial_refresh:false ~serve:(fun _ ~ops:_ k -> k ()) eng
      core
  in
  { core; eng; sched; next_client = 0; blocked_reads = 0 }

let replica_set t = t.core
let sessions t = Replica_set.sessions t.core
let primary_db t = Replica_set.primary t.core
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

(* The paper's reliable channel is instant here: a poll's batch is
   delivered along every plain link at once; a fault channel ticks once per
   refresh. Nothing wakes, so there is nothing to drain. *)
let propagate t = Scheduler.propagate t.sched

let refresh_one t i =
  if is_crashed t i then 0
  else begin
    (* Refresh transactions are the only ones a replica commits. *)
    let commits () = Mvcc.commit_count (secondary_db t i) in
    let before = commits () in
    Scheduler.refresh t.sched i;
    Lsr_sim.Engine.run t.eng;
    commits () - before
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
  while Replica_set.enabled t.core <> [] do
    incr ticks;
    if !ticks > pump_tick_cap then raise (Pump_stalled { ticks = !ticks });
    ignore (refresh_all t)
  done

let blocked_reads t = t.blocked_reads

let compact t = Replica_set.retire t.core

(* --- Transactions ---------------------------------------------------------- *)

(* A body raised (a failing SQL script does on purpose): the transaction
   aborts unrecorded, its watchdog token is released, and [exn] goes on up. *)
let abandon t txn exn =
  let bt = Printexc.get_raw_backtrace () in
  Replica_set.abandon t.core txn;
  Printexc.raise_with_backtrace exn bt

let update t client ?force_abort body =
  let txn = Replica_set.begin_update t.core ~session:client.label in
  let value = try body (Replica_set.handle txn) with exn -> abandon t txn exn in
  match Replica_set.commit ?force_abort t.core txn with
  | Ok () -> Ok value
  | Error reason ->
    Replica_set.finish_aborted t.core txn;
    Error reason

let run_read ?fence t client ~required body =
  let txn =
    Replica_set.begin_read ?fence t.core ~session:client.label
      ~site:client.secondary ~required
  in
  let value = try body (Replica_set.handle txn) with exn -> abandon t txn exn in
  Replica_set.finish_read t.core txn;
  value

let threshold ?fence t client =
  Replica_set.read_threshold ?fence t.core ~session:client.label
    ~floor:(Replica_set.fence_floor ?fence t.core)

(* Bound on pump rounds in a blocked read. Each pump drives the fault
   channels to quiescence, so commits already in the primary log arrive in
   one round; the bound exists for fences demanding a commit that does not
   exist yet ([Exact] in the future), where no amount of pumping helps. *)
let max_read_pumps = 4

let read ?fence t client body =
  if is_crashed t client.secondary then
    raise (Secondary_down { secondary = client.secondary });
  (* Nothing moves seq(c) while a blocked read pumps: the target stays. *)
  let target = threshold ?fence t client in
  (* A pump never replaces a live site's replica. *)
  let sec = secondary t client.secondary in
  let satisfied () = Timestamp.compare target (Secondary.seq_dbsec sec) <= 0 in
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
             required = target;
             available = Secondary.seq_dbsec sec;
             pumps = !pumps;
           })
  end;
  run_read ?fence t client ~required:target body

let read_nowait ?fence t client body =
  (* A crashed target is "cannot serve this read now" — the [None] case of
     the contract, not an exception. *)
  if is_crashed t client.secondary then None
  else
    let required = threshold ?fence t client in
    let sec = secondary t client.secondary in
    if Timestamp.compare required (Secondary.seq_dbsec sec) <= 0 then
      Some (run_read ?fence t client ~required body)
    else None

(* --- Failures -------------------------------------------------------------- *)

let crash_secondary t i =
  ignore (Replica_set.fire t.core (Replica_set.Crash (site t i)))

let recover_secondary t i =
  if not (is_crashed t i) then
    invalid_arg "System.recover_secondary: not crashed";
  ignore (Replica_set.fire t.core (Replica_set.Recover i))

(* --- Verification ----------------------------------------------------------- *)

let check t =
  match Replica_set.check t.core with [], _ -> Ok () | es, _ -> Error es
