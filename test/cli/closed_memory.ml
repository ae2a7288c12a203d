(* Memory guard for the closed-loop client model: a thinking client must
   cost one pending timer event, not a parked process, and that timer must
   be a queue slot carrying the client's index to its site's one shared
   action. Runs 2 sites x 50k closed-loop clients for 0.05 virtual seconds
   (nearly every client is still thinking at the end) and fails when the
   growth of the resident-set high-water mark across the run, per client,
   reaches [bound_bytes]. A client parked in a long-lived process costs
   about 1.2 kB here; one that is a row of its site's columns (session
   number, session end, random stream) and an argument timer, about
   0.12 kB (0.19 kB while each client was a record with a closure and a
   stream of its own, 0.31 kB while each start was a zero-delay event and
   each client kept a label).

   [-v] prints the measurement. Prints a skip line and exits 0 where
   /proc/self/status is unreadable. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let bound_bytes = 160.
let sites = 2
let clients_per_site = 50_000

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
  match Memory_probe.vm_hwm_bytes () with
  | None -> print_endline "closed_memory: skipped, /proc/self/status unreadable"
  | Some before ->
    ignore (Sim.run cfg);
    let after = Option.get (Memory_probe.vm_hwm_bytes ()) in
    let per_client = (after -. before) /. float_of_int (sites * clients_per_site) in
    let fail = per_client >= bound_bytes in
    if fail || Array.exists (String.equal "-v") Sys.argv then
      Printf.printf
        "closed_memory: %speak RSS grew %.0f B per closed-loop client (bound %.0f)\n"
        (if fail then "FAIL, " else "")
        per_client bound_bytes;
    if fail then exit 1
