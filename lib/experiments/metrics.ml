open Lsr_sim
module Histogram = Lsr_obs.Histogram
module Obs = Lsr_obs.Obs

type t = {
  warmup : float;
  cap : float;
  mutable fast : int;
  read_rt : Stat.t;
  update_rt : Stat.t;
  read_rt_hist : Histogram.t;
  update_rt_hist : Histogram.t;
  mutable aborts : int;
  mutable fcw_aborts : int;
  block_wait : Stat.t;
  staleness : Stat.t;
  mutable wasted : int;
  read_age : Stat.t;
  read_age_hist : Histogram.t;
  read_missed : Stat.t;
  mutable fenced_reads : int;
  (* The registry's instruments: every sample, warm-up included. *)
  c_fcw_aborts : Obs.counter;
  c_forced_aborts : Obs.counter;
  h_read_rt : Obs.histogram;
  h_update_rt : Obs.histogram;
  h_block_wait : Obs.histogram;
}

let create ~obs ~warmup ~cap =
  {
    warmup;
    cap;
    fast = 0;
    read_rt = Stat.create ();
    update_rt = Stat.create ();
    read_rt_hist = Histogram.create ();
    update_rt_hist = Histogram.create ();
    aborts = 0;
    fcw_aborts = 0;
    block_wait = Stat.create ();
    staleness = Stat.create ();
    wasted = 0;
    read_age = Stat.create ();
    read_age_hist = Histogram.create ();
    read_missed = Stat.create ();
    fenced_reads = 0;
    c_fcw_aborts = Obs.counter obs "client.fcw_aborts";
    c_forced_aborts = Obs.counter obs "client.forced_aborts";
    h_read_rt = Obs.histogram obs "client.read_rt";
    h_update_rt = Obs.histogram obs "client.update_rt";
    h_block_wait = Obs.histogram obs "client.block_wait";
  }

let measuring t now = now > t.warmup

let note_completion t ~now ~response_time ~is_update =
  Obs.observe (if is_update then t.h_update_rt else t.h_read_rt) response_time;
  if measuring t now then begin
    if response_time <= t.cap then t.fast <- t.fast + 1;
    Stat.record (if is_update then t.update_rt else t.read_rt) response_time;
    Histogram.record
      (if is_update then t.update_rt_hist else t.read_rt_hist)
      response_time
  end

let note_abort t ~now =
  Obs.incr t.c_forced_aborts;
  if measuring t now then t.aborts <- t.aborts + 1

let note_fcw_abort t ~now =
  Obs.incr t.c_fcw_aborts;
  if measuring t now then begin
    t.aborts <- t.aborts + 1;
    t.fcw_aborts <- t.fcw_aborts + 1
  end

let note_block t ~now ~wait =
  Obs.observe t.h_block_wait wait;
  if measuring t now then Stat.record t.block_wait wait

let note_refresh t ~now ~staleness =
  if measuring t now then Stat.record t.staleness staleness

let note_wasted_ops t ~now n = if measuring t now then t.wasted <- t.wasted + n

let note_read_freshness t ~now ~age ~missed =
  if measuring t now then begin
    Stat.record t.read_age age;
    Histogram.record t.read_age_hist age;
    Stat.record t.read_missed (float_of_int missed)
  end

let note_fenced_read t = t.fenced_reads <- t.fenced_reads + 1
let fast_completions t = t.fast
let read_rt t = t.read_rt
let update_rt t = t.update_rt
let read_rt_hist t = t.read_rt_hist
let update_rt_hist t = t.update_rt_hist
let aborts t = t.aborts
let fcw_aborts t = t.fcw_aborts
let blocked_reads t = Stat.count t.block_wait
let block_wait t = t.block_wait
let refresh_staleness t = t.staleness
let refresh_commits t = Stat.count t.staleness
let wasted_ops t = t.wasted
let read_age t = t.read_age
let read_age_hist t = t.read_age_hist
let read_missed t = t.read_missed
let fenced_reads t = t.fenced_reads
