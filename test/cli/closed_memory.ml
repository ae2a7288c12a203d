(* Memory guard for the closed-loop client model: a thinking client must
   cost one pending timer event, not a parked process, and that timer must
   be a queue slot whose action is the client's own closure. Runs 2 sites x
   50k closed-loop clients for 0.05 virtual seconds (nearly every client is
   still thinking at the end) and fails when the growth of the resident-set
   high-water mark across the run, per client, reaches [bound_bytes]. A
   client parked in a long-lived process costs about 1.2 kB here; one that
   waits on a timer whose action is its own reused closure about 0.31 kB.

   Prints a skip line and exits 0 where /proc/self/status is unreadable. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let bound_bytes = 450.
let sites = 2
let clients_per_site = 50_000

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

let () =
  let cfg =
    Sim.config
      {
        Params.default with
        Params.num_secondaries = sites;
        clients_per_secondary = clients_per_site;
        warmup = 0.;
        duration = 0.05;
      }
      Session.Strong_session ~seed:3
  in
  match vm_hwm_bytes () with
  | None -> print_endline "closed_memory: skipped, /proc/self/status unreadable"
  | Some before ->
    ignore (Sim.run cfg);
    let after = Option.get (vm_hwm_bytes ()) in
    let per_client = (after -. before) /. float_of_int (sites * clients_per_site) in
    if per_client >= bound_bytes then begin
      Printf.printf
        "closed_memory: FAIL, peak RSS grew %.0f B per closed-loop client (bound %.0f)\n"
        per_client bound_bytes;
      exit 1
    end
