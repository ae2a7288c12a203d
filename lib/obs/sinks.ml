type t = { obs : Obs.t; flight : Flight.t }
