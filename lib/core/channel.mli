(** A faulty, sequenced transport for propagated transaction records.

    Sits between the primary's propagator (Algorithm 3.1) and one secondary's
    update queue. The underlying "network" misbehaves — it can {e lose},
    {e duplicate}, {e delay} and {e reorder} (within a bounded window)
    individual record transmissions — while a sequence-number / cumulative-ack
    / retransmit-with-exponential-backoff layer on top restores exactly the
    FIFO reliable channel the paper's §3 assumes: the receiver observes every
    record exactly once, in primary timestamp order, no matter what the
    network does underneath.

    All randomness is drawn from a caller-supplied {!Lsr_sim.Rng.t}, so a
    fault schedule is a pure function of the seed and the send/tick sequence —
    failing randomized trials replay exactly from their seed.

    Time is modelled in integer {e ticks}. The embedded {!Lsr_core.System}
    advances one tick per refresh call (and loops inside [pump] until the
    channel quiesces); the simulator maps ticks to virtual seconds. Base
    one-hop latency is one tick. *)

type config = {
  loss : float;  (** per-transmission drop probability (applies to
                     retransmissions too); must be [< 1.] for liveness *)
  dup : float;  (** probability a transmission is delivered twice *)
  delay : float;  (** probability of extra delivery latency *)
  max_delay : int;  (** extra latency, uniform on [1, max_delay] ticks *)
  reorder : float;  (** probability a transmission is deferred past later ones *)
  reorder_window : int;
      (** bound on the reordering distance, in ticks: a deferred message
          arrives at most [reorder_window] ticks late *)
  ack_loss : float;  (** drop probability for cumulative acks; must be [< 1.] *)
  rto : int;  (** initial retransmission timeout, in ticks ([>= 1]) *)
  backoff : float;  (** multiplicative timeout growth per retransmission ([>= 1.]) *)
  max_rto : int;  (** timeout ceiling, in ticks *)
}

(** A fault-free configuration (the paper's model): every transmission
    arrives after exactly one tick, in order, exactly once. *)
val reliable : config

(** Mild faults: a few percent loss/duplication, occasional short delays. *)
val default : config

(** Aggressive faults: heavy loss, duplication, delay and reordering on both
    data and ack paths. Still live ([loss < 1]). *)
val chaos : config

(** Counters since creation ({!reset} does not clear them, so a crash/restart
    cycle keeps its evidence). The channel counts into this one record;
    callers read it. *)
type stats = private {
  mutable sent : int;  (** records accepted by {!send} *)
  mutable delivered : int;  (** records handed to the receiver, in order *)
  mutable dropped : int;  (** transmissions lost by the network *)
  mutable duplicated : int;  (** extra copies injected *)
  mutable delayed : int;  (** transmissions given extra latency *)
  mutable reordered : int;  (** transmissions deferred past later ones *)
  mutable retransmitted : int;  (** sender timeouts that resent a record *)
  mutable acks_dropped : int;  (** cumulative acks lost *)
  mutable stale_ignored : int;
      (** arrivals below the receive cursor, discarded *)
  mutable max_flight : int;  (** peak messages simultaneously in the network *)
  mutable max_ooo : int;  (** peak out-of-order buffer depth at the receiver *)
}

val zero_stats : stats

(** Pointwise sum; the [max_*] fields take the maximum. *)
val add_stats : stats -> stats -> stats

type t

(** [create ~rng ()] is a fresh channel. Mutates [rng] on every send/tick.
    Its counts live only in its {!stats} record. A [Channel_dropped] /
    [Channel_delayed] / [Channel_duplicated] / [Channel_retransmitted]
    stage is noted in [recorder] per injected fault, tagged with [site] (the
    recorder id of the site this channel feeds, from
    {!Lsr_obs.Flight.intern}) and the affected record's transaction id — so
    faults show up in that transaction's journey and in the flight
    recorder.
    @raise Invalid_argument on an ill-formed config (probabilities outside
    [0, 1], [loss >= 1.], [ack_loss >= 1.], [rto < 1], [backoff < 1.],
    negative windows). *)
val create :
  ?config:config ->
  ?recorder:Lsr_obs.Flight.t ->
  ?site:int ->
  rng:Lsr_sim.Rng.t ->
  unit ->
  t

(** [send t records] accepts a batch from the propagator: each record gets
    the next sequence number and is transmitted (subject to faults). *)
val send : t -> Lsr_storage.Wal.entry list -> unit

(** [tick t] advances one tick: arrivals are processed, in-order records are
    delivered (returned oldest first), a cumulative ack is emitted, acked
    messages are released and timed-out ones retransmitted. *)
val tick : t -> Lsr_storage.Wal.entry list

(** Nothing buffered anywhere: no unacked messages, nothing in flight, no
    out-of-order arrivals held back. Every sent record has been delivered. *)
val idle : t -> bool

(** [reset t] models losing both endpoints' connection state (secondary
    crash/restart): in-flight and unacked messages vanish, sequence numbers
    restart at zero on both sides. Counters are preserved. *)
val reset : t -> unit

(** The channel's own counters, live: they keep counting as it runs. *)
val stats : t -> stats
