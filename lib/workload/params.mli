(** Simulation model parameters — Table 1 of the paper, plus the run
    controls from §6.1 (35 simulated minutes, 5-minute warm-up, five
    replications) and the TPC-W transaction mixes from §5. *)

type t = {
  num_secondaries : int;  (** number of secondary sites (varies) *)
  clients_per_secondary : int;  (** 20 per secondary *)
  think_time : float;  (** mean client think time, 7 s (exponential) *)
  session_time : float;  (** mean session duration, 15 min (exponential) *)
  update_tran_prob : float;  (** probability of an update transaction *)
  abort_prob : float;  (** update transaction abort probability, 1% *)
  tran_size_min : int;  (** operations per transaction: uniform 5..15 *)
  tran_size_max : int;
  op_service_time : float;  (** service time per operation, 0.02 s *)
  update_op_prob : float;  (** probability an op of an update txn writes, 30% *)
  propagation_delay : float;  (** propagator think time, 10 s *)
  propagation_jitter : float;
      (** per-secondary extra delivery delay, uniform on [0, jitter]; 0 in
          the paper's model. Models per-destination batching/scheduling
          variance so replicas genuinely diverge in freshness (used by the
          PCSI ablation). Deliveries to one site stay FIFO. *)
  (* Run controls (§6.1). *)
  warmup : float;  (** measurement starts here, 5 min *)
  duration : float;  (** total run length, 35 min *)
  replications : int;  (** independent runs per point, 5 *)
  response_time_cap : float;
      (** the throughput curves count transactions finishing within this
          bound (3 s) *)
  key_space : int;  (** distinct data items *)
  key_skew : float;
      (** Zipf exponent for key popularity; 0 (the paper's model) = uniform.
          Positive skew concentrates writes on hot items, producing real
          first-committer-wins conflicts at the primary (the contention
          ablation). *)
}

(** Table 1 defaults with the 80/20 ("shopping") mix and 5 secondaries. *)
val default : t

(** [browsing p] switches to the 95/5 ("browsing") mix. *)
val browsing : t -> t

(** Scaled-down run controls for quick regeneration (shorter runs, fewer
    replications); the curve shapes are preserved. *)
val quick : t -> t

(** Rows for reprinting Table 1. *)
val table1_rows : t -> (string * string * string) list
