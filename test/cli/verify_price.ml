(* The price of online verification, exactly: the minor words each sink adds
   per transaction on the benchmark's verified-session configuration at
   smoke size (2 sites x 20k open-loop clients, 4,096 pooled sessions per
   site, strong session SI, 0.5 s propagation, warmup 0.1 s). Each variant
   runs for 0.5 and for 1.0 virtual seconds; its marginal cost is
   Δminor words / Δtransactions between the two, so set-up cancels out. A
   sink's price is its variant's marginal cost minus that of the run with
   neither sink attached.
   [Gc.minor_words] is exact for a deterministic run, so the bounds are too.

   Fails when the watchdog costs more than [watchdog_bound] words per
   transaction or the flight recorder more than [flight_bound]. Prints
   nothing on success; [verify_price.exe -v] prints the four numbers. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let watchdog_bound = 75.
let flight_bound = 10.

let config ~duration ~watchdog ~flight =
  let clients = 20_000 in
  let params =
    {
      Params.default with
      Params.num_secondaries = 2;
      clients_per_secondary = clients;
      op_service_time = 1e-6;
      propagation_delay = 0.5;
      warmup = 0.1;
      duration;
      tran_size_min = 2;
      tran_size_max = 6;
    }
  in
  {
    (Sim.config params Session.Strong_session ~seed:20060912) with
    Sim.client_mode =
      Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool = 4096 };
    watchdog;
    flight = (if flight then Lsr_obs.Flight.create () else Lsr_obs.Flight.null);
  }

(* Minor words and completed transactions of one run. The end-of-run flight
   bundle's size depends on the mix of events in the ring's last window, so
   it is priced by building it once more and left out. *)
let measure cfg =
  let words () = Gc.minor_words () in
  let before = words () in
  let o = Sim.run cfg in
  let run = words () -. before in
  let before = words () in
  ignore (Lsr_obs.Flight.bundle_json cfg.Sim.flight ~config:Lsr_obs.Json.Null);
  let bundle = words () -. before in
  (run -. bundle, o.Sim.reads_completed + o.Sim.updates_completed)

let marginal ~watchdog ~flight =
  let w1, n1 = measure (config ~duration:0.5 ~watchdog ~flight) in
  let w2, n2 = measure (config ~duration:1.0 ~watchdog ~flight) in
  (w2 -. w1) /. float_of_int (n2 - n1)

let () =
  (* A first run pays the one-time initialisations, so that no variant
     below does. *)
  ignore (measure (config ~duration:0.05 ~watchdog:true ~flight:true));
  let base = marginal ~watchdog:false ~flight:false in
  let watchdog = marginal ~watchdog:true ~flight:false -. base in
  let flight = marginal ~watchdog:false ~flight:true -. base in
  let verbose = Array.exists (String.equal "-v") Sys.argv in
  let fail = watchdog > watchdog_bound || flight > flight_bound in
  if verbose || fail then
    Printf.printf
      "verify_price: base %.1f, watchdog +%.1f (bound %.0f), flight recorder \
       +%.1f (bound %.0f) minor words per transaction\n"
      base watchdog watchdog_bound flight flight_bound;
  if fail then exit 1
