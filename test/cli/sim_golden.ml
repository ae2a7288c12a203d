(* Pins six small simulator runs by the number of events they fire and a
   digest of their whole outcome. A change meant to keep results identical
   (a faster event queue, a leaner process or resource) must leave this
   output byte for byte as it is: any reordering of same-time events shows
   up here, not only in a benchmark comparison.

   The digest covers every outcome field except [checker_cpu_s], which is
   host time. *)

open Lsr_core
open Lsr_workload
module Sim = Lsr_experiments.Sim_system

let params ~clients ~op_service_time =
  {
    Params.default with
    Params.num_secondaries = 2;
    clients_per_secondary = clients;
    op_service_time;
    propagation_delay = 1.0;
    propagation_jitter = 0.2;
    warmup = 2.;
    duration = 20.;
  }

(* Closed-loop churn: sessions short enough that labels roll over, and
   enough aborts and key skew that the first-committer-wins and forced-abort
   retry loops run. *)
let churn =
  {
    (params ~clients:200 ~op_service_time:2e-3) with
    Params.session_time = 3.;
    abort_prob = 0.05;
    key_skew = 0.8;
  }

let open_loop ~clients ~session_pool =
  Sim.Open_loop { clients; arrival = Sim.Poisson; session_pool }

let runs =
  [
    ( "open-loop weak",
      {
        (Sim.config (params ~clients:500 ~op_service_time:1e-3) Session.Weak
           ~seed:11)
        with
        Sim.client_mode = open_loop ~clients:500 ~session_pool:0;
      } );
    ( "closed strong-session",
      Sim.config
        (params ~clients:200 ~op_service_time:2e-3)
        Session.Strong_session ~seed:12 );
    ( "open strong-session, watchdog and flight",
      {
        (Sim.config
           (params ~clients:500 ~op_service_time:1e-3)
           Session.Strong_session ~seed:13)
        with
        Sim.client_mode = open_loop ~clients:500 ~session_pool:64;
        watchdog = true;
        flight = Lsr_obs.Flight.create ();
      } );
    ( "closed churn, migration and fence mix",
      {
        (Sim.config churn Session.Strong_session ~seed:14) with
        Sim.migrate_prob = 0.2;
        fence =
          Sim.Fence_mix
            [
              (0.5, None);
              (0.3, Some Session.Session_seq);
              (0.2, Some (Session.Max_age 0.5));
            ];
      } );
    ( "closed churn, watchdog, flight and history",
      {
        (Sim.config churn Session.Strong_session ~seed:15) with
        Sim.watchdog = true;
        flight = Lsr_obs.Flight.create ();
        record_history = true;
      } );
    ( "closed strong-session over default faults, watchdog, flight and history",
      {
        (Sim.config
           (params ~clients:200 ~op_service_time:2e-3)
           Session.Strong_session ~seed:16)
        with
        Sim.faults = Some Channel.default;
        watchdog = true;
        flight = Lsr_obs.Flight.create ();
        record_history = true;
      } );
  ]

let () =
  List.iter
    (fun (name, cfg) ->
      let o = Sim.run cfg in
      let digest =
        Digest.to_hex
          (Digest.string
             (Marshal.to_string { o with Sim.checker_cpu_s = 0. } [ Marshal.No_sharing ]))
      in
      Printf.printf "%s: sim_events=%d reads=%d updates=%d refresh_commits=%d\n  outcome %s\n"
        name o.Sim.sim_events o.Sim.reads_completed o.Sim.updates_completed
        o.Sim.refresh_commits digest)
    runs
