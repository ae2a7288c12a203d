(* From snapshot isolation to serializability — the §7 connection.

   Run with: dune exec examples/serializable.exe

   SI admits write skew, so it is not serializable. The paper's related work
   (Fekete et al; Schenkel et al's tickets) shows that deliberately
   introducing write-write conflicts restores serializability on top of a
   strong-SI engine. The One_sr module implements that ticket technique;
   this example provokes the classic on-call-roster write skew, shows the
   serialization-graph checker rejecting it, then repairs it with tickets. *)

open Lsr_storage
open Lsr_core
open Lsr_serializability

(* Record a hand-run transaction into a history for the checkers. *)
let record h ~session ~first_op ~snapshot ~reads ~writes ~commit_ts =
  let served = History.reads () in
  List.iter (fun (key, value) -> History.serve served key value) reads;
  History.add h ~key:Fun.id ~id:(History.fresh_id h) ~session ~site:"primary"
    ~first_op ~finished:(History.tick h) ~snapshot
    ~commit:(Option.value commit_ts ~default:History.aborted) ~writes ~fence:None served

let roster_invariant db =
  let on k = Mvcc.read_at db (Mvcc.latest_commit_ts db) k = Some "on" in
  (if on "oncall:dr-jones" then 1 else 0) + if on "oncall:dr-chen" then 1 else 0

let seed ?history db =
  let first_op = match history with Some h -> History.tick h | None -> 0 in
  let txn = Mvcc.begin_txn db in
  Mvcc.write db txn "oncall:dr-jones" (Some "on");
  Mvcc.write db txn "oncall:dr-chen" (Some "on");
  let writes = Mvcc.pending_writes txn in
  match Mvcc.commit db txn with
  | Mvcc.Committed cts -> (
    match history with
    | Some h ->
      record h ~session:"admin" ~first_op ~snapshot:Timestamp.zero ~reads:[]
        ~writes ~commit_ts:(Some cts)
    | None -> ())
  | Mvcc.Aborted _ -> assert false

(* Each doctor checks that someone else is on call, then signs off. *)
let sign_off db txn ~me ~other =
  let reads =
    [ (me, Mvcc.read db txn me); (other, Mvcc.read db txn other) ]
  in
  if List.for_all (fun (_, v) -> v = Some "on") reads then
    Mvcc.write db txn me (Some "off");
  reads

let without_tickets () =
  print_endline "--- plain snapshot isolation ---";
  let db = Mvcc.create () in
  let h = History.create () in
  seed ~history:h db;
  let snapshot = Mvcc.latest_commit_ts db in
  let first1 = History.tick h in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  let r1 = sign_off db t1 ~me:"oncall:dr-jones" ~other:"oncall:dr-chen" in
  let r2 = sign_off db t2 ~me:"oncall:dr-chen" ~other:"oncall:dr-jones" in
  let w1 = Mvcc.pending_writes t1 and w2 = Mvcc.pending_writes t2 in
  let c1 = match Mvcc.commit db t1 with Mvcc.Committed c -> Some c | _ -> None in
  let first2 = History.tick h in
  let c2 = match Mvcc.commit db t2 with Mvcc.Committed c -> Some c | _ -> None in
  record h ~session:"jones" ~first_op:first1 ~snapshot ~reads:r1 ~writes:w1
    ~commit_ts:c1;
  record h ~session:"chen" ~first_op:first2 ~snapshot ~reads:r2 ~writes:w2
    ~commit_ts:c2;
  Printf.printf "both sign-offs committed: %b\n" (c1 <> None && c2 <> None);
  Printf.printf "doctors still on call: %d (invariant wanted >= 1)\n"
    (roster_invariant db);
  (match Mvsg.serialization_cycle h with
  | Some cycle ->
    Printf.printf
      "serialization-graph checker: NOT serializable (cycle through %d \
       transactions)\n"
      (List.length cycle)
  | None -> print_endline "serialization-graph checker: serializable");
  Printf.printf "yet the history is valid SI: %b\n\n"
    ((Watchdog.verdict (Watchdog.replay ~guarantee:Session.Weak h))
       .Watchdog.alerts_total = 0)

let with_tickets () =
  print_endline "--- snapshot isolation + One_sr tickets ---";
  let db = Mvcc.create () in
  seed db;
  let sign_off_guarded ~me ~other =
    One_sr.run db (fun txn -> ignore (sign_off db txn ~me ~other))
  in
  (* The same race: both doctors try to sign off "concurrently". The guard
     makes the transactions conflict, so one aborts and retries against the
     new state, where the invariant check stops it. *)
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  ignore (sign_off db t1 ~me:"oncall:dr-jones" ~other:"oncall:dr-chen");
  ignore (sign_off db t2 ~me:"oncall:dr-chen" ~other:"oncall:dr-jones");
  One_sr.guard db t1;
  One_sr.guard db t2;
  (match Mvcc.commit db t1 with
  | Mvcc.Committed _ -> print_endline "dr-jones signs off: committed"
  | Mvcc.Aborted _ -> print_endline "dr-jones signs off: aborted");
  (match Mvcc.commit db t2 with
  | Mvcc.Committed _ -> print_endline "dr-chen signs off: committed (BUG!)"
  | Mvcc.Aborted (Mvcc.Write_conflict key) ->
    Printf.printf "dr-chen signs off: aborted by FCW on %s — retrying...\n" key
  | Mvcc.Aborted Mvcc.Forced -> assert false);
  (* The retry re-reads the roster and declines to sign off. *)
  (match sign_off_guarded ~me:"oncall:dr-chen" ~other:"oncall:dr-jones" with
  | Ok ((), _) -> print_endline "dr-chen's retry committed (without signing off)"
  | Error _ -> print_endline "dr-chen's retry exhausted");
  Printf.printf "doctors still on call: %d (invariant preserved)\n"
    (roster_invariant db);
  Printf.printf "guarded commits so far (ticket value): %d\n"
    (One_sr.ticket_value db)

let () =
  without_tickets ();
  with_tickets ();
  print_endline
    "\ntickets trade concurrency for serializability — the exact opposite of\n\
     the paper's direction, which relaxes ordering to gain concurrency and\n\
     then restores just enough of it (per session) to avoid inversions."
