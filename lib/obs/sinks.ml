type t = { obs : Obs.t; lineage : Lineage.t; flight : Flight.t }

let null = { obs = Obs.null; lineage = Lineage.null; flight = Flight.null }
let tracing t = Lineage.enabled t.lineage || Flight.enabled t.flight

let stage t ?site ~txn s =
  Lineage.emit t.lineage ?site ~txn s;
  Flight.note_stage t.flight ?site ~txn s
