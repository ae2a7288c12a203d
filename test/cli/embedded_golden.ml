(* Pins a small run of the embedded system (no simulator): 3 secondaries,
   the Table 1 80/20 transaction mix over 64 sessions, propagation and
   refresh every 50 transactions, and [pump] + [compact] every 500. It
   prints what each [compact] reclaimed, each database's final version
   count, the primary log length and a digest of the committed state. A
   change to storage maintenance meant to keep results identical must leave
   this output byte for byte as it is.

   A second phase runs 2 secondaries behind fault channels
   ([Channel.default]) through propagate, refresh, crash, updates, a
   blocked read, recovery and pump. It prints what each replication call
   returned, each site's seq(DBsec), the summed channel counters, a digest
   of each secondary's committed state and every flight-recorder event in
   order, so a change to how the replication moves are driven must leave
   the fault and crash paths as they are. *)

open Lsr_sim
open Lsr_storage
open Lsr_core
open Lsr_workload
module Flight = Lsr_obs.Flight

let keys = 2_000
let txns = 4_250
let sessions = 64
let refresh_every = 50
let compact_every = 500

let params = { Params.default with Params.key_space = keys }

(* A forced-abort transaction runs its writes only, as in the benchmark:
   [System.check] judges an aborted update's reads at snapshot 0. *)
let apply ~writes_only spec h =
  List.iter
    (function
      | Txn_gen.Read_op k -> if not writes_only then ignore (Handle.get h k)
      | Txn_gen.Write_op (k, v) -> Handle.put h k v)
    spec.Txn_gen.ops

let state_digest db =
  let state = Buffer.create 65536 in
  List.iter
    (fun (k, v) -> Printf.bprintf state "%s=%s\n" k v)
    (Mvcc.committed_state db);
  Digest.to_hex (Digest.string (Buffer.contents state))

let faults_phase () =
  print_endline "faults phase";
  let flight = Flight.create () in
  let sys =
    System.create ~secondaries:2 ~faults:(Channel.default, 20060912) ~flight
      ~guarantee:Session.Strong_session ()
  in
  let c0 = System.connect sys ~secondary:0 "c0" in
  let c1 = System.connect sys ~secondary:1 "c1" in
  let put c i =
    match
      System.update sys c (fun h ->
          Handle.put h (Printf.sprintf "k%d" (i mod 7)) (string_of_int i))
    with
    | Ok () -> ()
    | Error _ -> failwith "update aborted"
  in
  let step name n = Printf.printf "%s %d\n" name n in
  for i = 0 to 9 do
    put c0 i
  done;
  step "propagate" (System.propagate sys);
  step "refresh_all" (System.refresh_all sys);
  step "refresh_one 1" (System.refresh_one sys 1);
  put c1 10;
  step "propagate" (System.propagate sys);
  System.crash_secondary sys 1;
  step "refresh_one 1 (crashed)" (System.refresh_one sys 1);
  for i = 11 to 20 do
    put c0 i
  done;
  step "propagate" (System.propagate sys);
  let seen = System.read sys c0 (fun h -> Handle.get h "k6") in
  Printf.printf "blocked read k6=%s blocked_reads %d\n"
    (Option.value seen ~default:"-")
    (System.blocked_reads sys);
  System.recover_secondary sys 1;
  for i = 21 to 25 do
    put c1 i
  done;
  step "refresh_all" (System.refresh_all sys);
  System.pump sys;
  for i = 0 to System.secondaries sys - 1 do
    Printf.printf "s%d seq %d state %s\n" i
      (Secondary.seq_dbsec (System.secondary sys i))
      (state_digest (System.secondary_db sys i))
  done;
  let s = System.channel_stats sys in
  Printf.printf
    "channels sent=%d delivered=%d dropped=%d duplicated=%d delayed=%d \
     reordered=%d retransmitted=%d acks_dropped=%d stale_ignored=%d \
     max_flight=%d max_ooo=%d\n"
    s.Channel.sent s.delivered s.dropped s.duplicated s.delayed s.reordered
    s.retransmitted s.acks_dropped s.stale_ignored s.max_flight s.max_ooo;
  (match Flight.parse_bundle (Flight.bundle_json flight ~config:(Lsr_obs.Json.Obj [])) with
  | Ok b ->
    Printf.printf "flight %d events\n" (Array.length b.Flight.window);
    Array.iter (fun e -> Format.printf "%a@." Flight.pp_event e) b.Flight.window
  | Error e -> failwith e);
  Printf.printf "check %s\n"
    (match System.check sys with Ok () -> "ok" | Error es -> String.concat "; " es)

let () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Strong_session () in
  let loader = System.connect sys "loader" in
  (match
     System.update sys loader (fun h ->
         for k = 0 to keys - 1 do
           Handle.put h (Mvcc.key_name k) "v0"
         done)
   with
  | Ok () -> ()
  | Error _ -> failwith "preload aborted");
  System.pump sys;
  Printf.printf "preload compact reclaimed %d\n" (System.compact sys);
  let clients =
    Array.init sessions (fun i -> System.connect sys (Printf.sprintf "c%d" i))
  in
  let rng = Rng.create 20060912 in
  for i = 0 to txns - 1 do
    let c = clients.(i mod sessions) in
    let spec = Txn_gen.generate params rng in
    (if Txn_gen.is_update spec then begin
       let force_abort = Rng.bernoulli rng ~p:params.Params.abort_prob in
       match System.update sys c ~force_abort (apply ~writes_only:force_abort spec) with
       | Ok () | Error Mvcc.Forced -> ()
       | Error (Mvcc.Write_conflict k) -> failwith ("write conflict on " ^ k)
     end
     else System.read sys c (apply ~writes_only:false spec));
    if (i + 1) mod refresh_every = 0 then begin
      ignore (System.propagate sys);
      ignore (System.refresh_all sys)
    end;
    if (i + 1) mod compact_every = 0 then begin
      System.pump sys;
      Printf.printf "txn %d compact reclaimed %d\n" (i + 1) (System.compact sys)
    end
  done;
  System.pump sys;
  Printf.printf "versions primary %d" (Mvcc.version_count (System.primary_db sys));
  for i = 0 to System.secondaries sys - 1 do
    Printf.printf " s%d %d" i (Mvcc.version_count (System.secondary_db sys i))
  done;
  print_newline ();
  Printf.printf "primary wal length %d\n" (Wal.length (Mvcc.wal (System.primary_db sys)));
  Printf.printf "committed state %s\n" (state_digest (System.primary_db sys));
  Printf.printf "check %s\n"
    (match System.check sys with Ok () -> "ok" | Error es -> String.concat "; " es);
  faults_phase ()
