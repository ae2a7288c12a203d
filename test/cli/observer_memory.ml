(* Memory guard for the observers a run report keeps: the report outlives
   every run it is handed, so nothing it holds may grow with the number of
   transactions, and nothing it holds may keep a finished run alive. Runs
   the same 2 sites x 2,000 closed-loop clients for 20 and then 40 virtual
   seconds, each with a fresh [Run_report.create ()] attached, and measures
   after each run the heap words reachable from the report. Fails when the
   growth per extra completed transaction reaches [bound_bytes].

   A registry that recorded a span per transaction, or a flight recorder
   whose clock still read the run's engine (and through it every client and
   both MVCC stores), costs hundreds of bytes per transaction here. What
   remains is the monitor's one row per virtual second, a few bytes per
   transaction. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system
module Run_report = Lsr_experiments.Run_report

let bound_bytes = 32.
let sites = 2

(* Completed transactions and the bytes the report still reaches after a
   run of [duration] virtual seconds. *)
let measure duration =
  let cfg =
    Sim.config
      {
        Params.default with
        Params.num_secondaries = sites;
        clients_per_secondary = 2_000;
        op_service_time = 1e-4;
        warmup = 0.;
        duration;
      }
      Session.Strong_session ~seed:7
  in
  let report = Run_report.create () in
  let o = Run_report.run report ~tag:"observer-memory" cfg in
  let txns = o.Sim.reads_completed + o.Sim.updates_completed in
  Gc.full_major ();
  let bytes = Obj.reachable_words (Obj.repr report) * (Sys.word_size / 8) in
  (txns, float_of_int bytes)

let () =
  let short_txns, short_bytes = measure 20. in
  let long_txns, long_bytes = measure 40. in
  let per_txn =
    (long_bytes -. short_bytes) /. float_of_int (long_txns - short_txns)
  in
  if per_txn >= bound_bytes then begin
    Printf.printf
      "observer_memory: FAIL, the report holds %.1f B more per extra \
       transaction (%d -> %d txns, %.0f -> %.0f B; bound %.0f)\n"
      per_txn short_txns long_txns short_bytes long_bytes bound_bytes;
    exit 1
  end
