(** Experiment definitions: one runner per figure of the paper's evaluation
    (Figures 2–8) plus the ablation studies listed in DESIGN.md.

    Each runner sweeps its x-axis, executing [replications] independent
    simulation runs per (point, algorithm) pair, and reduces them to 95%
    confidence intervals exactly as §6.1 prescribes. Figures sharing runs
    (2/3/4 and 5/6/7) are produced together so the sweep executes once. *)

open Lsr_core
open Lsr_workload
open Lsr_stats

type point = {
  x : float;
  interval : Confidence.interval;
}

type series = {
  label : string;
  points : point list;
}

type figure = {
  id : string;  (** e.g. "fig2" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;
}

(** Sweep configuration. [quick] shortens runs and replication counts while
    preserving curve shapes; [progress] receives one message per completed
    run; [base_params] overrides the Table 1 base entirely (tiny
    configurations for tests). *)
type run_opts = {
  quick : bool;
  seed : int;
  progress : string -> unit;
  base_params : Lsr_workload.Params.t option;
  report : Run_report.t;
      (** every simulation run of the sweep goes through {!Run_report.run},
          tagged ["<sweep tag> rep <i>"]. Default {!Run_report.null}. *)
}

val default_opts : run_opts

(** Figures 2, 3 and 4: throughput within 3 s, read-only response time and
    update response time vs number of clients (5 secondaries, 80/20). *)
val fig2_3_4 : run_opts -> figure * figure * figure

(** Figures 5, 6 and 7: the same three metrics vs number of secondaries at
    20 clients per secondary (80/20), with the ideal linear-scaling
    reference of Figure 5. *)
val fig5_6_7 : run_opts -> figure * figure * figure

(** Figure 8: throughput vs number of secondaries under the 95/5 browsing
    mix. *)
val fig8 : run_opts -> figure

(** Extension figure (not part of the paper's evaluation, so not in the
    default `all` target): p95 read snapshot age vs number of clients —
    staleness as experienced by read-only transactions, from the freshness
    observer's per-read samples. *)
val fig_staleness : run_opts -> figure

(** Extension figure (not part of the paper's evaluation, so not in the
    default `all` target): per-site utilization (primary and mean secondary,
    in %) vs total clients for every guarantee — where the capacity goes as
    the system approaches its throughput knee. *)
val fig_utilization : run_opts -> figure

(** Extension figure (not part of the paper's evaluation, so not in the
    default `all` target): the staleness/latency tradeoff of bounded-staleness
    read fences. Every read carries a [Max_age d] fence under ALG-WEAK-SI and
    the sweep tightens [d] across at least four settings (plus an unfenced
    baseline, plotted one decade looser than the loosest bound); series are
    read response time p50/p95 and p95 observed snapshot age. *)
val fig_fence : run_opts -> figure

(** Extension figure (not part of the paper's evaluation, so not in the
    default `all` target): the run-time value of the static planner's mixed
    assignment ({!Lsr_analysis.Plan}). Three deployments of the [fence_mix]
    workload shape under ambient ALG-WEAK-SI — every read Session_seq-fenced
    (the uniform weakest-safe guarantee), only the plan's inversion-prone
    fraction fenced, and unfenced — compared on mean read response time vs
    load. *)
val fig_plan : run_opts -> figure

(** Ablation: commit-time propagation (Algorithm 3.1) vs the "simple method"
    that ships aborted transactions' work, across abort probabilities. *)
val ablate_propagation : run_opts -> figure

(** Ablation: concurrent applicator threads vs serial refresh. *)
val ablate_applicators : run_opts -> figure

(** Ablation: strong session SI vs PCSI vs weak SI when read-only
    transactions are load-balanced across secondaries (§7 comparison). *)
val ablate_pcsi : run_opts -> figure

(** Ablation: sensitivity of strong-session-SI read latency to the
    propagation delay. *)
val ablate_delay : run_opts -> figure

(** Extension ablation (not part of the paper's evaluation, so not in the
    default `all` target): Zipf key skew creates real first-committer-wins
    conflicts at the primary; reports FCW aborts per 1000 committed updates.
    Exercises the abort-propagation path end to end under contention. *)
val ablate_contention : run_opts -> figure

(** All three guarantees, in the paper's plotting order. *)
val algorithms : Session.guarantee list

(** The parameter set a given figure uses (for reporting). *)
val params_for : quick:bool -> Params.t
