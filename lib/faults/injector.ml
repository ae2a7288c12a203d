open Lsr_core
module Rng = Lsr_sim.Rng

type t = {
  config : Channel.config;
  rng : Rng.t;
  mutable channels : (int * Channel.t) list;
}

let create ?(config = Channel.default) ~seed () =
  { config; rng = Rng.create seed; channels = [] }

let faults t sinks i =
  let ch =
    Channel.create ~config:t.config ~sinks
      ~name:(Printf.sprintf "secondary-%d" i)
      ~rng:(Rng.split t.rng) ()
  in
  t.channels <- t.channels @ [ (i, ch) ];
  {
    System.ch_send = Channel.send ch;
    ch_tick = (fun () -> Channel.tick ch);
    ch_idle = (fun () -> Channel.idle ch);
    ch_reset = (fun () -> Channel.reset ch);
  }

let channel t i = List.assoc_opt i t.channels
let channels t = t.channels

let total t =
  List.fold_left
    (fun acc (_, ch) -> Channel.add_stats acc (Channel.stats ch))
    Channel.zero_stats t.channels
