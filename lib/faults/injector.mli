(** Attaches one fault {!Channel} per secondary of an embedded
    {!Lsr_core.System} and aggregates their counters.

    {[
      let inj = Injector.create ~config:Channel.chaos ~seed:42 () in
      let sys =
        System.create ~secondaries:3 ~faults:(Injector.faults inj)
          ~guarantee:Session.Strong_session ()
      in
      ... run a workload, System.pump sys ...
      assert ((Injector.total inj).Channel.retransmitted > 0)
    ]}

    Each channel gets an independent random stream split from the injector's
    seed, so a whole multi-secondary fault schedule replays from one seed. *)

type t

val create : ?config:Channel.config -> seed:int -> unit -> t

(** [faults inj] is the factory to pass as [System.create ~faults]. Each
    call builds a fresh channel reporting to the system's sinks and
    registers it under the given secondary index. Channels are named
    [secondary-<i>], matching the system's site names, so injected faults
    land in the right site's journey entries and flight events. *)
val faults : t -> Lsr_obs.Sinks.t -> int -> Lsr_core.System.channel

(** The channel attached to secondary [i], if [faults] was invoked for it. *)
val channel : t -> int -> Channel.t option

(** All channels created so far, as [(secondary index, channel)]. *)
val channels : t -> (int * Channel.t) list

(** Counters summed over every channel. *)
val total : t -> Channel.stats
