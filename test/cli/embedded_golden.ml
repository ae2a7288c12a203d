(* Pins a small run of the embedded system (no simulator): 3 secondaries,
   the Table 1 80/20 transaction mix over 64 sessions, propagation and
   refresh every 50 transactions, and [pump] + [compact] every 500. It
   prints what each [compact] reclaimed, each database's final version
   count, the primary log length and a digest of the committed state. A
   change to storage maintenance meant to keep results identical must leave
   this output byte for byte as it is. *)

open Lsr_sim
open Lsr_storage
open Lsr_core
open Lsr_workload

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

let () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Strong_session () in
  let loader = System.connect sys "loader" in
  (match
     System.update sys loader (fun h ->
         for k = 0 to keys - 1 do
           Handle.put h (Txn_gen.key_name k) "v0"
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
  let state = Buffer.create 65536 in
  List.iter
    (fun (k, v) -> Printf.bprintf state "%s=%s\n" k v)
    (Mvcc.committed_state (System.primary_db sys));
  Printf.printf "committed state %s\n" (Digest.to_hex (Digest.string (Buffer.contents state)));
  Printf.printf "check %s\n"
    (match System.check sys with Ok () -> "ok" | Error es -> String.concat "; " es)
