type t = { obs : Obs.t; flight : Flight.t }

let null = { obs = Obs.null; flight = Flight.null }
let tracing t = Flight.enabled t.flight
let stage t ~site ~txn s ~record n =
  Flight.note_stage t.flight ~site ~txn s ~record n
