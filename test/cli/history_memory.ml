(* Memory guards for the recorded history and its replay, both exact.
   Runs the embedded system with 3 secondaries, 20k preloaded keys and
   4,000 transactions of the Table 1 mix (the configuration of
   check_memory), then:

   - measures the words the history owns per transaction: its words in a
     census after the four stores ([Memory_probe.census]), so a block the
     history shares with a store (a commit's installed list, a stored key
     or value) is not counted, divided by the number of recorded
     transactions. Fails when that reaches [bound_words]. The history cost
     100.6 words per transaction here while it kept each read as a list
     cell and a pair holding the generator's fresh key string, 37.8 as a
     list of records with two flat read arrays each, 29.7 as columns, and
     29.3 since a read of a key its site has not installed yet keeps the
     replica set's key dictionary's string, not the generator's;
   - measures the minor words [Watchdog.replay] allocates per committed
     transaction when it judges that history ([Gc.minor_words], exact).
     Fails when that reaches [replay_bound_words]. It read 28.8 when the
     bound was set at it plus 10%: a 9-word token per transaction, about
     11 words of session records that the floor sweep drops and the next
     begin makes again, about 5 of sorting the begin and end orders and
     2 to 4 at each end. The watchdog's own state costs the minor heap
     almost nothing: its key table, per-key columns and version chunks
     are blocks over 256 words. While the watchdog kept a 9-word cell
     and a chain per preloaded key the replay allocated 95.6, and 105.6
     while it also built the history's records. Only the minor heap is
     priced: blocks over 256 words go straight to the major heap, so
     those tables, the replay's n-word int arrays and the sort's buffers
     are not counted (printed under [-v]: 73.9 words per committed
     transaction here, about 33 of them the key table's doublings up to
     65,536 slots, 20 the 20 version chunks the preload fills, 16 the
     three columns and 5 the replay's arrays; 29.2 while each key had a
     cell, whose chains stayed in the minor heap). The 10% margin (2.9
     words) catches a record per transaction, and a lone list cell
     (3 words) per transaction too; one more n-word array would not
     show.

   Deterministic: it reads no /proc. Prints nothing on success;
   [history_memory.exe -v] prints both numbers. *)

open Lsr_sim
open Lsr_core
open Lsr_workload

let bound_words = 32.7
let replay_bound_words = 31.7
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
           Handle.put h (Lsr_storage.Mvcc.key_name k) "v0"
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

(* The words allocated straight in the major heap so far (blocks over 256
   words, such as an n-word array): major words less those promoted. *)
let major_direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let fail fmt = Printf.ksprintf (fun s -> print_endline s; exit 1) fmt

let () =
  let sys = run () in
  let stores =
    (System.primary_db sys, System.secondary_db sys 0, System.secondary_db sys 1,
     System.secondary_db sys 2)
  in
  let history = System.history sys in
  let n = History.length history in
  let own =
    List.nth (Memory_probe.census [ Obj.repr stores; Obj.repr history ]) 1
  in
  let per_txn = float_of_int own /. float_of_int n in
  let committed = ref 0 in
  for i = 0 to n - 1 do
    if Lsr_storage.Column.get history.commit i <> History.aborted then incr committed
  done;
  let minor = Gc.minor_words () and major = major_direct () in
  ignore
    (Sys.opaque_identity
       (Watchdog.replay ~guarantee:Session.Strong_session history));
  let per_committed words = words /. float_of_int !committed in
  let replay_words = per_committed (Gc.minor_words () -. minor)
  and replay_major = per_committed (major_direct () -. major) in
  if Array.exists (String.equal "-v") Sys.argv then begin
    Printf.printf "history_memory: %.1f words per transaction (%d txns, bound %.1f)\n"
      per_txn n bound_words;
    Printf.printf
      "history_memory: the replay allocates %.2f minor words per committed \
       transaction (%d committed, bound %.1f), and %.2f more straight in \
       the major heap (not bounded)\n"
      replay_words !committed replay_bound_words replay_major
  end;
  if per_txn >= bound_words then
    fail "history_memory: FAIL, the history owns %.1f words per transaction \
          (bound %.1f)" per_txn bound_words;
  if replay_words >= replay_bound_words then
    fail "history_memory: FAIL, the replay allocates %.2f minor words per \
          committed transaction (bound %.1f)" replay_words replay_bound_words
