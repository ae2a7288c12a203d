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
   replay, by about 2.84 MB (2.88 MB while it built the history's records
   into a list and an array, 3.1 MB while a key's first chain held room
   for two versions and the unretired versions sat in a linked queue),
   most of it the watchdog's cell and chain for each of the 20k preloaded
   keys, live until the preload's version retires.

   Prints a skip line and exits 0 where /proc/self/status is unreadable;
   prints the rise on failure or with [-v]. *)

open Lsr_sim
open Lsr_core
open Lsr_workload

let bound_bytes = 4. *. 1048576.
let keys = 20_000
let txns = 4_000
let sessions = 64
let refresh_every = 100

let params = { Params.default with Params.key_space = keys }

(* Resident-set high-water mark (VmHWM) in bytes, or [None] when
   /proc/self/status cannot be read. *)
let vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> Some (1024. *. float_of_int kb))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

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
  match vm_hwm_bytes () with
  | None -> print_endline "check_memory: skipped, /proc/self/status unreadable"
  | Some _ ->
    let sys = run () in
    let before = Option.get (vm_hwm_bytes ()) in
    let verdict = System.check sys in
    let growth = Option.get (vm_hwm_bytes ()) -. before in
    (match verdict with
    | Ok () -> ()
    | Error es ->
      Printf.printf "check_memory: FAIL, System.check reported %s\n"
        (String.concat "; " es);
      exit 1);
    let fail = growth >= bound_bytes in
    if fail || Array.exists (String.equal "-v") Sys.argv then
      Printf.printf "check_memory: %sSystem.check grew peak RSS by %.2f MB (bound %.1f MB)\n"
        (if fail then "FAIL, " else "")
        (growth /. 1048576.) (bound_bytes /. 1048576.);
    if fail then exit 1
