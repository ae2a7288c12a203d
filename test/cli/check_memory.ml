(* Memory guard for the end-of-run verifier: [System.check] must verify a
   run by replaying the history once into a retiring watchdog and comparing
   states key by key, not by materializing database states or re-sorting
   the history once per check. Runs the embedded system (no simulator) with
   3 secondaries, 20k preloaded keys and 4,000 transactions of the Table 1
   mix, then fails when [System.check] raises the resident-set high-water
   mark (VmHWM) by [bound_bytes] or more. Materializing two sorted
   20k-binding states per secondary and sorting the history ten times
   raised it by about 11.5 MB; a separate checker's sorted sweep of the
   history, by about 1.7 MB (0.6 MB when this guard was written); the
   replay, by about 2.81 MB (3.40 MB while the watchdog kept a 9-word cell
   and a chain per preloaded key, 2.84 MB on an earlier guest, 2.88 MB
   while the replay built the history's records into a list and an array,
   3.1 MB while a key's first chain held room for two versions and the
   unretired versions sat in a linked queue). For each preloaded key the
   replay's watchdog now keeps at least two key-table slots and one slot
   in each of three columns, plus four words of a version chunk until the
   preload retires.

   The rise in RSS depends on the allocator and on what the run left
   free, so the guard also prices the replay in words: the heap words
   the watchdog that [Watchdog.replay] returns for this history reaches
   beyond the history and the commit clock ([Memory_probe.census]), which
   must stay below [bound_words]. That read 135,615 words (1.03 MB) when
   the bound was set at it plus 10% (229,432 while each key had a cell,
   its bound 252,375); it is exact, so it reads the same on every run.

   Prints a skip line and exits 0 where /proc/self/status is unreadable;
   prints both readings on failure or with [-v]. *)

open Lsr_sim
open Lsr_core
open Lsr_workload

let bound_bytes = 4. *. 1048576.
let bound_words = 149_177
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

(* The words of the watchdog [System.check] replays the run's history
   into, counted after the history and the commit clock it shares. *)
let watchdog_words sys =
  let history = System.history sys and clock = System.commit_clock sys in
  let watchdog =
    Watchdog.replay ~clock ~guarantee:Session.Strong_session history
  in
  List.nth
    (Memory_probe.census [ Obj.repr history; Obj.repr clock; Obj.repr watchdog ])
    2

let () =
  match Memory_probe.vm_hwm_bytes () with
  | None -> print_endline "check_memory: skipped, /proc/self/status unreadable"
  | Some _ ->
    let sys = run () in
    let before = Option.get (Memory_probe.vm_hwm_bytes ()) in
    let verdict = System.check sys in
    let growth = Option.get (Memory_probe.vm_hwm_bytes ()) -. before in
    (match verdict with
    | Ok () -> ()
    | Error es ->
      Printf.printf "check_memory: FAIL, System.check reported %s\n"
        (String.concat "; " es);
      exit 1);
    let words = watchdog_words sys in
    let verbose = Array.exists (String.equal "-v") Sys.argv in
    let fail = growth >= bound_bytes and fail_words = words >= bound_words in
    if fail || verbose then
      Printf.printf "check_memory: %sSystem.check grew peak RSS by %.2f MB (bound %.1f MB)\n"
        (if fail then "FAIL, " else "")
        (growth /. 1048576.) (bound_bytes /. 1048576.);
    if fail_words || verbose then
      Printf.printf
        "check_memory: %sthe replayed watchdog reaches %d words past the \
         history and the commit clock (bound %d)\n"
        (if fail_words then "FAIL, " else "")
        words bound_words;
    if fail || fail_words then exit 1
