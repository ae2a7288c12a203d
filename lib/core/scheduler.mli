(** The replication scheduler of both drivers, and the only module but
    {!Replica_set} that fires [Poll], [Deliver], [Refresh] or [Commit]. A
    site's refresher (Algorithm 3.2) and each applicator (3.3) start in
    zero-delay {!Lsr_sim.Engine} events, and a dispatched refresh waits its
    turn to commit on a {!Lsr_sim.Seqcond} of seq(DBsec). A driver supplies
    only how a site serves a job: the simulator on the site's
    {!Lsr_sim.Resource}, {!System} at once, on an engine whose clock never
    moves and which it drains after each call. *)

type t

(** [serve i ~ops k] serves [ops] operations at secondary [i], then runs
    [k]; [wasted ops] runs once a shipped abort record's [ops] writes are
    served. With [serial_refresh] a refresher waits for each refresh it
    dispatched to commit. Every refresher starts asleep. *)
val create :
  ?wasted:(int -> unit) -> serial_refresh:bool ->
  serve:(int -> ops:int -> (unit -> unit) -> unit) ->
  Lsr_sim.Engine.t -> Replica_set.t -> t

(** Wake every sleeping refresher. *)
val start : t -> unit

(** [deliver t i ()] fires [Deliver i]; when it moved records, site [i]'s
    sleeping refresher wakes. *)
val deliver : t -> int -> unit -> unit

(** Fire [Poll]; when it shipped records and the links are plain, call
    [deliver i] for every site [i], by default a [Deliver i] that wakes no
    refresher. Returns the records shipped. *)
val propagate : ?deliver:(int -> unit) -> t -> int

(** [refresh t i] readies live site [i] for a drain that refreshes it, and
    no other site, until neither [Refresh i] nor [Commit i] is enabled. It
    lifts the commit order to seq(DBsec), which an outside [Commit i] or
    [Recover i] moves, fires [Deliver i], commits the refreshes dispatched
    from outside since the last drain and wakes the refresher. *)
val refresh : t -> int -> unit
