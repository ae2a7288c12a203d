(** Per-run measurement collection for the simulated system.

    The paper's throughput curves are "response time-related": they count
    transactions finishing within 3 seconds (§6.2). Response times are
    tallied per transaction class; all counters ignore the warm-up window. *)

open Lsr_sim

type t

val create : warmup:float -> cap:float -> t

(** [note_completion t ~now ~response_time ~is_update] records one finished
    transaction. *)
val note_completion : t -> now:float -> response_time:float -> is_update:bool -> unit

val note_abort : t -> now:float -> unit

(** A real first-committer-wins conflict at the primary (as opposed to the
    paper's forced [abort_prob] aborts, which [note_abort] also counts). *)
val note_fcw_abort : t -> now:float -> unit

(** [note_block t ~now ~wait] — a read-only transaction waited [wait]
    seconds for its session condition. *)
val note_block : t -> now:float -> wait:float -> unit

(** [note_refresh t ~now ~staleness] — a refresh transaction committed;
    [staleness] is seconds since its primary commit. *)
val note_refresh : t -> now:float -> staleness:float -> unit

val note_wasted_ops : t -> now:float -> int -> unit

(** [note_read_freshness t ~now ~age ~missed] — a read-only transaction took
    its snapshot; [age] is the virtual-time age of the newest primary commit
    the snapshot reflects (0 when the site was fully caught up) and [missed]
    the number of committed-but-unapplied primary transactions at that
    moment (the freshness definition of docs/TRACING.md). *)
val note_read_freshness : t -> now:float -> age:float -> missed:int -> unit

(** {2 Reduction} *)

(** Transactions finishing within the cap, post warm-up. *)
val fast_completions : t -> int

val read_rt : t -> Stat.t
val update_rt : t -> Stat.t

(** Response-time distributions (for percentile reporting): bounded
    log-linear histograms, so their quantiles are within 1/128 of the exact
    nearest-rank sample and their memory is fixed however long the run. *)
val read_rt_hist : t -> Lsr_obs.Histogram.t

val update_rt_hist : t -> Lsr_obs.Histogram.t
val aborts : t -> int
val fcw_aborts : t -> int
val blocked_reads : t -> int
val block_wait : t -> Stat.t
val refresh_staleness : t -> Stat.t
val refresh_commits : t -> int
val wasted_ops : t -> int
val read_age : t -> Stat.t

(** Snapshot-age distribution (for percentile reporting), bounded like
    {!read_rt_hist}. *)
val read_age_hist : t -> Lsr_obs.Histogram.t

val read_missed : t -> Stat.t
