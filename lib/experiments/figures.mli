(** The paper's evaluation (Figures 2–8), its extension figures and the
    ablation studies of DESIGN.md, as data.

    Each figure is a {!spec}: its header, its x values and a list of
    {!line}s, each mapping an x to a tagged simulation config and reducing
    an outcome to one number. {!run} walks the requested specs, collects
    every replication they need into one job table keyed by the seeded
    config without its observer sinks (never by tag: two figures may reuse
    a tag over different configs), runs each distinct job once and reduces
    each (line, x) cell to a 95% confidence interval, as §6.1 prescribes.
    Figures requested together share their identical runs: 3 and 4 reuse
    2's, 6 and 7 reuse 5's, [fig-staleness] and [fig-utilization] reuse
    2's. *)

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

(** Sweep configuration. [quick] shortens runs and replication counts while
    preserving curve shapes; [progress] receives one message per completed
    run; [base_params] overrides the Table 1 base entirely (tiny
    configurations for tests). *)
type run_opts = {
  quick : bool;
  seed : int;
  progress : string -> unit;
  base_params : Params.t option;
  report : Run_report.t;
      (** every simulation run goes through {!Run_report.run}, tagged
          ["<cell tag> rep <i>"]. Default {!Run_report.null}. *)
}

val default_opts : run_opts

(** One series of a spec. [cell base x] is the cell's run tag and its
    unseeded config over the base parameters; replication [i] of a cell
    runs with seed [opts.seed + 1000 i + Hashtbl.hash tag]. *)
type line = {
  name : string;  (** the series label *)
  cell : Params.t -> float -> string * Sim_system.config;
  metric : Sim_system.outcome -> float;
}

(** Which target group a spec belongs to: the paper's figures ([figures]),
    its ablations ([ablations]), or extension studies kept out of [all]. *)
type group = Paper_figure | Paper_ablation | Extension

(** The order a spec runs its cells in: every line at each x, or every x
    of each line, first line first or last line first. The order only
    shows in a run report's [runs] and time series, so it is part of a
    spec; the two paper ablations with two variants run last first. *)
type walk = By_x | By_line | By_line_reversed

type spec = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  notes : string list;
  group : group;
  xs : float list;  (** an infinite x plots one decade past the largest *)
  quick_xs : float list;
  walk : walk;
  lines : line list;
  ideal : string option;
      (** prepend an "ideal (linear)" series extrapolating this series'
          first point (Figures 5 and 8) *)
}

type figure = {
  id : string;  (** e.g. "fig2" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;
}

(** Every spec, in output order. *)
val specs : spec list

(** [run opts ids] builds the figures of the specs named in [ids], in
    {!specs} order; ids naming no spec are ignored. *)
val run : run_opts -> string list -> figure list

(** The Table 1 parameter set at paper or quick scale. *)
val params_for : quick:bool -> Params.t
