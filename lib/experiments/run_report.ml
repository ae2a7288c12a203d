module Obs = Lsr_obs.Obs
module Flight = Lsr_obs.Flight
module Json = Lsr_obs.Json

type run = {
  tag : string;
  check_errors : string list;
  bottleneck : Bottleneck.t;
  channels : Lsr_core.Channel.stats option;
  watchdog : Json.t option;
  flight : Json.t option;
}

type t = {
  recording : bool;
  obs : Obs.t;
  monitor : Monitor.t;
  flight : Flight.t;
  mutable runs : run list; (* newest first *)
}

let null =
  {
    recording = false;
    obs = Obs.null;
    monitor = Monitor.null;
    flight = Flight.null;
    runs = [];
  }

let create () =
  {
    recording = true;
    obs = Obs.create ();
    monitor = Monitor.create ~interval:1.0 ();
    flight = Flight.create ();
    runs = [];
  }

let run t ~tag (cfg : Sim_system.config) =
  let cfg =
    {
      cfg with
      Sim_system.obs = t.obs;
      monitor = t.monitor;
      flight = t.flight;
      watchdog = cfg.Sim_system.watchdog || t.recording;
    }
  in
  let o = Sim_system.run cfg in
  if t.recording then
    t.runs <-
      {
        tag;
        check_errors = o.Sim_system.check_errors;
        bottleneck = Bottleneck.analyze cfg.Sim_system.params o;
        channels =
          Option.map (fun _ -> o.Sim_system.channels) cfg.Sim_system.faults;
        watchdog = o.Sim_system.watchdog_report;
        flight = o.Sim_system.flight_report;
      }
      :: t.runs;
  o

let channels_json (c : Lsr_core.Channel.stats) =
  let n v = Json.Num (float_of_int v) in
  Json.Obj
    [
      ("sent", n c.sent);
      ("delivered", n c.delivered);
      ("dropped", n c.dropped);
      ("duplicated", n c.duplicated);
      ("delayed", n c.delayed);
      ("reordered", n c.reordered);
      ("retransmitted", n c.retransmitted);
      ("acks_dropped", n c.acks_dropped);
      ("stale_ignored", n c.stale_ignored);
      ("max_flight", n c.max_flight);
      ("max_ooo", n c.max_ooo);
    ]

let to_json t =
  let opt = Option.value ~default:Json.Null in
  let run_json r =
    Json.Obj
      [
        ("tag", Json.Str r.tag);
        ("check_errors", Json.Arr (List.map (fun e -> Json.Str e) r.check_errors));
        ("bottleneck", Bottleneck.to_json r.bottleneck);
        ("channels", opt (Option.map channels_json r.channels));
        ("watchdog", opt r.watchdog);
        ("flight", opt r.flight);
      ]
  in
  Json.Obj
    [
      ("version", Json.Num 2.);
      ("runs", Json.Arr (List.rev_map run_json t.runs));
      ("freshness", Lag_report.to_json (Lag_report.of_obs t.obs));
      ("metrics", Obs.metrics_json t.obs);
      ("timeseries", Lsr_obs.Timeseries.to_json (Monitor.series t.monitor));
    ]

let summary t =
  let lag =
    Printf.sprintf
      "\n== Per-site freshness / propagation lag (virtual seconds) ==\n%s\n"
      (Lag_report.render (Lag_report.of_obs t.obs))
  in
  match t.runs with
  | [] -> lag
  | last :: _ ->
    lag ^ "\n== Bottleneck report ==\n"
    ^ Bottleneck.render ~tag:last.tag last.bottleneck
