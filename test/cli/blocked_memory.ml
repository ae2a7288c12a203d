(* Memory guard for reads blocked on seq(c) under strong session SI: a
   read that must wait for its site to catch up must park as a
   continuation in the site's threshold queue, not hold a suspended
   process (an OCaml 5 fiber and its stack) while it waits. Runs 2 sites
   x 100k open-loop clients for 1 virtual second over a pool of 1,024
   sessions per site, with a 0.5 s propagation cycle, so that thousands
   of reads are parked at once (a pooled session's seq(c) keeps rising,
   so many re-park after a wake), and fails when the growth of the
   resident-set high-water mark across the run, per blocked read
   ([blocked_reads], about 5.2k), reaches [bound_bytes].

   Measured on a 2-vCPU x86-64 Linux guest, 3 runs each: about 5,200 B
   per blocked read (27.0 MB in all) when each blocked read held its
   process, about 3,550 B (18.4 MB) once it parks as a continuation, and
   about 3,340 B (17.3 MB) once no transaction runs as a fiber. The bound
   sits between the first two.

   Prints a skip line and exits 0 where /proc/self/status is unreadable. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let bound_bytes = 4400.

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
  match vm_hwm_bytes () with
  | None -> print_endline "blocked_memory: skipped, /proc/self/status unreadable"
  | Some before ->
    let o = Sim.run cfg in
    let after = Option.get (vm_hwm_bytes ()) in
    let per_read = (after -. before) /. float_of_int o.Sim.blocked_reads in
    if per_read >= bound_bytes then begin
      Printf.printf
        "blocked_memory: FAIL, peak RSS grew %.0f B per blocked read (bound %.0f)\n"
        per_read bound_bytes;
      exit 1
    end
