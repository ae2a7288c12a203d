(* Memory guard for the records a simulated run keeps per transaction: only
   the primary writes a log, and once per propagation cycle the simulator
   truncates it behind the propagation cursor and vacuums every store below
   its oldest open transaction. A run that records no history keeps no
   commit lists. Runs 2 sites x 200k open-loop clients under weak SI, with
   no history, watchdog or recorder attached, and fails when the growth of
   the resident-set high-water mark across the run, per completed
   transaction, reaches [bound_bytes]. What is left per transaction is the
   version each update installs at every site for a key it is the first to
   write; the vacuum reclaims the older versions of keys written again.

   Measured on a 2-vCPU x86-64 Linux guest: about 471 B per transaction
   when every site logged every transaction, never truncated, and kept a
   commit list; about 292 B once only the primary logs, its log is
   truncated every cycle and no commit list is kept; about 244 B once an
   unscanned store keeps no list of new keys and an older version is one
   block instead of a record and a list cell. On another such guest that
   code read 217 B, and about 212 B once every store is vacuumed each
   cycle. The bound leaves the spread between the two guests.

   [-v] prints the measurement. Prints a skip line and exits 0 where
   /proc/self/status is unreadable. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let bound_bytes = 250.

let () =
  let clients = 200_000 in
  let cfg =
    {
      (Sim.config
         {
           Params.default with
           Params.num_secondaries = 2;
           clients_per_secondary = clients;
           op_service_time = 1e-6;
           propagation_delay = 1.0;
           warmup = 0.;
           duration = 2.;
         }
         Session.Weak ~seed:11)
      with
      Sim.client_mode =
        Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool = 0 };
    }
  in
  match Memory_probe.vm_hwm_bytes () with
  | None -> print_endline "storage_memory: skipped, /proc/self/status unreadable"
  | Some before ->
    let o = Sim.run cfg in
    let after = Option.get (Memory_probe.vm_hwm_bytes ()) in
    let txns = o.Sim.reads_completed + o.Sim.updates_completed in
    let per_txn = (after -. before) /. float_of_int txns in
    let fail = per_txn >= bound_bytes in
    if fail || Array.exists (String.equal "-v") Sys.argv then
      Printf.printf
        "storage_memory: %speak RSS grew %.0f B per completed transaction \
         over %d (bound %.0f)\n"
        (if fail then "FAIL, " else "") per_txn txns bound_bytes;
    if fail then exit 1
