(* Prints the CSV of every figure spec at tiny parameters (two
   replications, one virtual minute per run), so a change to the spec
   table, the job table or the reducer that moves any figure fails here. *)

open Lsr_workload
module Figures = Lsr_experiments.Figures
module Report = Lsr_experiments.Report

let tiny =
  {
    Params.default with
    Params.clients_per_secondary = 4;
    warmup = 10.;
    duration = 60.;
    replications = 2;
    propagation_delay = 3.;
  }

let () =
  let opts =
    { Figures.default_opts with Figures.quick = true; base_params = Some tiny }
  in
  List.iter
    (fun (figure : Figures.figure) ->
      Printf.printf "== %s.csv ==\n%s" figure.id (Report.csv_of_figure figure))
    (Figures.run opts
       (List.map (fun (s : Figures.spec) -> s.id) Figures.specs))
