(** The two observability sinks a replica set takes as one value at
    construction: [obs] for its instruments and the flight recorder for its
    events. {!Obs.null} and {!Flight.null} disable either. *)

type t = { obs : Obs.t; flight : Flight.t }
