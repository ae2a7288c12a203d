(* Memory guard for the recorded history: the words the history owns per
   transaction, exactly. Runs the embedded system with 3 secondaries, 20k
   preloaded keys and 4,000 transactions of the Table 1 mix (the
   configuration of check_memory), then measures
   [Obj.reachable_words (stores, history)] minus [Obj.reachable_words stores]
   over the four stores, so a block the history shares with a store (a
   commit's installed list, a stored key or value) is not counted, and
   divides by the number of recorded transactions. Fails when that reaches
   [bound_words]. A history keeping each read as a list cell and a pair
   holding the generator's fresh key string cost 100.6 words per
   transaction here; two flat arrays per transaction holding the stores'
   own keys and values, 37.8.

   Exact and deterministic: it reads no /proc. Prints nothing on success;
   [history_memory.exe -v] prints the words per transaction. *)

open Lsr_sim
open Lsr_core
open Lsr_workload

let bound_words = 41.6
let keys = 20_000
let txns = 4_000
let sessions = 64
let refresh_every = 100

let params = { Params.default with Params.key_space = keys }

let apply spec h =
  List.iter
    (function
      | Txn_gen.Read_op k -> ignore (Handle.get h k)
      | Txn_gen.Write_op (k, v) -> Handle.put h k v)
    spec.Txn_gen.ops

let run () =
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
  let clients =
    Array.init sessions (fun i -> System.connect sys (Printf.sprintf "c%d" i))
  in
  let rng = Rng.create 20060912 in
  for i = 0 to txns - 1 do
    let c = clients.(i mod sessions) in
    let spec = Txn_gen.generate params rng in
    (if Txn_gen.is_update spec then
       match System.update sys c (apply spec) with
       | Ok () -> ()
       | Error _ -> failwith "update aborted"
     else System.read sys c (apply spec));
    if (i + 1) mod refresh_every = 0 then begin
      ignore (System.propagate sys);
      ignore (System.refresh_all sys)
    end
  done;
  System.pump sys;
  sys

let () =
  let sys = run () in
  let stores =
    (System.primary_db sys, System.secondary_db sys 0, System.secondary_db sys 1,
     System.secondary_db sys 2)
  in
  let history = System.history sys in
  let own =
    Obj.reachable_words (Obj.repr (stores, history))
    - Obj.reachable_words (Obj.repr stores)
  in
  let per_txn = float_of_int own /. float_of_int (History.length history) in
  if Array.exists (String.equal "-v") Sys.argv then
    Printf.printf "history_memory: %.1f words per transaction (%d txns, bound %.1f)\n"
      per_txn (History.length history) bound_words;
  if per_txn >= bound_words then begin
    Printf.printf
      "history_memory: FAIL, the history owns %.1f words per transaction \
       (bound %.1f)\n"
      per_txn bound_words;
    exit 1
  end
