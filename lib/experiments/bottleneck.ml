open Lsr_stats
open Lsr_workload
module Json = Lsr_obs.Json

type rank = {
  bn_site : string;
  bn_utilization : float;
  bn_wait_share : float;
  bn_queue_mean : float;
  bn_throughput : float;
  bn_littles_gap : float;
}

type component = {
  comp_name : string;
  comp_seconds : float;
  comp_share : float;
}

type breakdown = {
  br_class : string;
  br_rt_mean : float;
  br_components : component list;
}

type t = {
  dominant : string;
  ranking : rank list;
  breakdowns : breakdown list;
}

let rank_resources (resources : Sim_system.resource_report list) =
  let wait_sum =
    List.fold_left
      (fun acc r -> acc +. r.Sim_system.res_wait_total)
      0. resources
  in
  let rank (r : Sim_system.resource_report) =
    {
      bn_site = r.Sim_system.res_site;
      bn_utilization = r.Sim_system.res_utilization;
      bn_wait_share =
        (if wait_sum > 0. then r.Sim_system.res_wait_total /. wait_sum else 0.);
      bn_queue_mean = r.Sim_system.res_queue_mean;
      bn_throughput = r.Sim_system.res_throughput;
      bn_littles_gap = r.Sim_system.res_littles_gap;
    }
  in
  List.sort
    (fun a b ->
      match compare b.bn_utilization a.bn_utilization with
      | 0 -> compare a.bn_site b.bn_site
      | c -> c)
    (List.map rank resources)

(* Residence-time attribution per transaction class. The service component
   is exact by construction of the workload (mean operations per transaction
   times the per-operation demand); the session-block component is measured
   directly; for updates the cost of work thrown away by aborts is charged
   as "retry" (wasted operations amortized over completed updates). The
   remainder is time spent queued at a shared resource. *)
let components_of rt parts =
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  let parts = parts @ [ ("queueing", Float.max 0. (rt -. attributed)) ] in
  List.map
    (fun (name, s) ->
      {
        comp_name = name;
        comp_seconds = s;
        comp_share = (if rt > 0. then s /. rt else 0.);
      })
    parts

let breakdowns_of (p : Params.t) (o : Sim_system.outcome) =
  let mean_ops =
    float_of_int (p.Params.tran_size_min + p.Params.tran_size_max) /. 2.
  in
  let service = mean_ops *. p.Params.op_service_time in
  let per count total = if count = 0 then 0. else total /. float_of_int count in
  let read_block =
    per o.Sim_system.reads_completed
      (o.Sim_system.block_wait_mean *. float_of_int o.Sim_system.blocked_reads)
  in
  let update_retry =
    per o.Sim_system.updates_completed
      (float_of_int o.Sim_system.wasted_ops *. p.Params.op_service_time)
  in
  [
    {
      br_class = "read";
      br_rt_mean = o.Sim_system.read_rt_mean;
      br_components =
        components_of o.Sim_system.read_rt_mean
          [ ("session-block", read_block); ("service", service) ];
    };
    {
      br_class = "update";
      br_rt_mean = o.Sim_system.update_rt_mean;
      br_components =
        components_of o.Sim_system.update_rt_mean
          [ ("service", service); ("retry", update_retry) ];
    };
  ]

let analyze (p : Params.t) (o : Sim_system.outcome) =
  let ranking = rank_resources o.Sim_system.resources in
  {
    dominant = (match ranking with [] -> "none" | r :: _ -> r.bn_site);
    ranking;
    breakdowns = breakdowns_of p o;
  }

let percent x = Printf.sprintf "%.0f%%" (100. *. x)

let render ?tag t =
  let buf = Buffer.create 1024 in
  let label = match tag with None -> "" | Some s -> " [" ^ s ^ "]" in
  let dominant_util =
    match t.ranking with [] -> 0. | r :: _ -> r.bn_utilization
  in
  Buffer.add_string buf
    (Printf.sprintf "bottleneck%s: %s (utilization %s)\n" label t.dominant
       (percent dominant_util));
  let header =
    [ "site"; "util"; "wait share"; "L"; "tput"; "littles gap" ]
  in
  let cells r =
    [
      r.bn_site;
      percent r.bn_utilization;
      percent r.bn_wait_share;
      Table_fmt.float_cell r.bn_queue_mean;
      Table_fmt.float_cell r.bn_throughput;
      Printf.sprintf "%.3f" r.bn_littles_gap;
    ]
  in
  Buffer.add_string buf (Table_fmt.render ~header (List.map cells t.ranking));
  (* Table_fmt.render has no trailing newline. *)
  Buffer.add_char buf '\n';
  List.iter
    (fun b ->
      let parts =
        List.map
          (fun c ->
            Printf.sprintf "%s %.3fs (%s)" c.comp_name c.comp_seconds
              (percent c.comp_share))
          b.br_components
      in
      Buffer.add_string buf
        (Printf.sprintf "%-6s rt %.3fs = %s\n" b.br_class b.br_rt_mean
           (String.concat " + " parts)))
    t.breakdowns;
  Buffer.contents buf

let to_json t =
  let rank_json r =
    Json.Obj
      [
        ("site", Json.Str r.bn_site);
        ("utilization", Json.Num r.bn_utilization);
        ("wait_share", Json.Num r.bn_wait_share);
        ("queue_mean", Json.Num r.bn_queue_mean);
        ("throughput", Json.Num r.bn_throughput);
        ("littles_gap", Json.Num r.bn_littles_gap);
      ]
  in
  let component_json c =
    Json.Obj
      [
        ("name", Json.Str c.comp_name);
        ("seconds", Json.Num c.comp_seconds);
        ("share", Json.Num c.comp_share);
      ]
  in
  let breakdown_json b =
    Json.Obj
      [
        ("class", Json.Str b.br_class);
        ("rt_mean", Json.Num b.br_rt_mean);
        ("components", Json.Arr (List.map component_json b.br_components));
      ]
  in
  Json.Obj
    [
      ("dominant", Json.Str t.dominant);
      ("resources", Json.Arr (List.map rank_json t.ranking));
      ("classes", Json.Arr (List.map breakdown_json t.breakdowns));
    ]
