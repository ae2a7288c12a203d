open Lsr_sim

type t = {
  enabled : bool;
  interval : float;
  series : Lsr_obs.Timeseries.t;
}

let null =
  { enabled = false; interval = 0.; series = Lsr_obs.Timeseries.create () }

let create ?(interval = 1.0) () =
  if not (Float.is_finite interval) || interval <= 0. then
    invalid_arg "Monitor.create: interval must be positive and finite";
  { enabled = true; interval; series = Lsr_obs.Timeseries.create () }

let enabled t = t.enabled
let series t = t.series

let attach t eng ~probe =
  if t.enabled then begin
    Lsr_obs.Timeseries.new_run t.series;
    Process.spawn eng (fun () ->
        let rec loop () =
          Process.delay t.interval;
          Lsr_obs.Timeseries.add t.series ~time:(Engine.now eng) (probe ());
          loop ()
        in
        loop ())
  end
