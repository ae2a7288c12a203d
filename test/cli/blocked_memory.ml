(* Memory guard for reads blocked on seq(c) under strong session SI: a
   read that must wait for its site to catch up must park as a row of its
   site's columns and a four-slot waiter in the site's threshold queue,
   not hold a closure, let alone a suspended process (an OCaml 5 fiber
   and its stack), while it waits. Runs 2 sites
   x 100k open-loop clients for 1 virtual second over a pool of 1,024
   sessions per site, with a 0.5 s propagation cycle, so that thousands
   of reads are parked at once (a pooled session's seq(c) keeps rising,
   so many re-park after a wake), and fails when the growth of the
   resident-set high-water mark across the run, per blocked read
   ([blocked_reads], about 5.2k), reaches [bound_bytes].

   Measured on a 2-vCPU x86-64 Linux guest, 3 runs each: about 5,200 B
   per blocked read (27.0 MB in all) when each blocked read held its
   process, about 3,550 B (18.4 MB) once it parks as a continuation, and
   about 3,340 B (17.3 MB) once no transaction runs as a fiber. On a
   later 2-vCPU guest, 3 runs each: about 3,200 B (16.6 MB) while a
   parked read held its generated operations, about 2,250 B (11.7 MB)
   once it holds a copy of its random stream and draws its keys when it
   runs. On a later 2-vCPU guest, 3 runs each: about 2,020 B while a
   parked read was a waiter record with a threshold closure and a
   continuation closure, about 1,795 B once it is a row of its site's
   columns. The bound is that reading plus about 10%.

   Prints a skip line and exits 0 where /proc/self/status is unreadable;
   [-v] prints the figure on success too. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let bound_bytes = 1950.

let () =
  let clients = 100_000 in
  let cfg =
    {
      (Sim.config
         {
           Params.default with
           Params.num_secondaries = 2;
           clients_per_secondary = clients;
           op_service_time = 1e-6;
           propagation_delay = 0.5;
           warmup = 0.;
           duration = 1.;
         }
         Session.Strong_session ~seed:5)
      with
      Sim.client_mode =
        Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool = 1024 };
    }
  in
  match Memory_probe.vm_hwm_bytes () with
  | None -> print_endline "blocked_memory: skipped, /proc/self/status unreadable"
  | Some before ->
    let o = Sim.run cfg in
    let after = Option.get (Memory_probe.vm_hwm_bytes ()) in
    let per_read = (after -. before) /. float_of_int o.Sim.blocked_reads in
    let fail = per_read >= bound_bytes in
    if fail || Array.exists (String.equal "-v") Sys.argv then
      Printf.printf
        "blocked_memory: %speak RSS grew %.0f B per blocked read (bound %.0f)\n"
        (if fail then "FAIL, " else "")
        per_read bound_bytes;
    if fail then exit 1
