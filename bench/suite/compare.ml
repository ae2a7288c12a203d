(* [lsrbench compare A B]: B against A, one row per workload and end-to-end
   metric, each judged by its own bound from BENCHMARK.json. *)

module Json = Lsr_obs.Json

type workload = {
  samples : (string * float list) list;  (** metric -> values, in rep order *)
  output : string;
      (** what must not move between two runs of one seed: the simulated
          statistics, or the embedded primary's final state. The event
          count may move; a faster simulator may fire fewer events. *)
}

let load file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let obj k j = match Json.member k j with Some (Json.Obj l) -> l | _ -> []
let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

let workload j =
  let values m =
    match Json.member "values" m with
    | Some (Json.Arr l) -> List.filter_map (function Json.Num f -> Some f | _ -> None) l
    | _ -> []
  in
  {
    samples = List.map (fun (k, m) -> (k, values m)) (obj "metrics" j);
    output = (match str "model_digest" j with "" -> str "digest" j | d -> d);
  }

(* One side: the summaries ([run --json]) of one or more invocations, given
   as a comma-separated list. Values are concatenated in that order, so
   alternated invocations of A and B pair up by position. *)
let side files =
  let summaries = List.map load (String.split_on_char ',' files) in
  let merge acc (name, j) =
    let w = workload j in
    match List.assoc_opt name acc with
    | None -> acc @ [ (name, w) ]
    | Some old ->
      let samples =
        List.map
          (fun (k, v) -> (k, Option.value ~default:[] (List.assoc_opt k old.samples) @ v))
          w.samples
      in
      List.map
        (fun (n, x) -> if n = name then (n, { samples; output = x.output }) else (n, x))
        acc
  in
  let seeds = List.sort_uniq compare (List.map (Json.member "seed") summaries) in
  (seeds, List.fold_left (fun acc j -> List.fold_left merge acc (obj "workloads" j)) [] summaries)

(* Pairs are taken by position; B wins a pair when it is strictly better. *)
let wins ~lower va vb =
  let rec go acc n a b =
    match (a, b) with
    | x :: a, y :: b ->
      let win = if lower then y < x else y > x in
      go (if win then acc + 1 else acc) (n + 1) a b
    | _ -> (acc, n)
  in
  go 0 0 va vb

let row ~name (m : Spec.metric) va vb =
  let ma = Stats.median va and mb = Stats.median vb in
  let lower = m.lower_is_better in
  let change = (mb -. ma) /. ma in
  let worse = if lower then change else -.change in
  let bound = Option.value ~default:0. m.bound in
  let spread = Float.max (Stats.spread va) (Stats.spread vb) in
  let all_better =
    if lower then Stats.maximum vb < Stats.minimum va
    else Stats.minimum vb > Stats.maximum va
  in
  let verdict =
    if all_better then "better"
    else if spread > bound then "unresolved"
    else if worse > bound then "REGRESSION"
    else "ok"
  in
  let w, n = wins ~lower va vb in
  Printf.printf "%-17s %-12s %12.6g %12.6g %+7.2f%% %6.1f%% %7.2f%% %-11s %s\n" name
    m.name ma mb (100. *. change) (100. *. bound) (100. *. spread) verdict
    (if n >= 10 then
       Printf.sprintf "%d/%d%s" w n (if w * 10 >= n * 9 then " (>= 9/10)" else "")
     else "-");
  verdict <> "REGRESSION"

let run (spec : Spec.t) files_a files_b =
  let seeds_a, wa = side files_a and seeds_b, wb = side files_b in
  let same_seed = List.length seeds_a = 1 && seeds_a = seeds_b in
  Printf.printf "%-17s %-12s %12s %12s %8s %7s %8s %-11s %s\n" "workload" "metric"
    "A median" "B median" "change" "bound" "spread" "verdict" "B wins";
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun (name, a) ->
           match List.assoc_opt name wb with
           | None ->
             Printf.printf "%-17s only in A\n" name;
             []
           | Some b ->
             let rows =
               List.filter_map
                 (fun (m : Spec.metric) ->
                   match (List.assoc_opt m.name a.samples, List.assoc_opt m.name b.samples) with
                   | Some (_ :: _ as va), Some (_ :: _ as vb) -> Some (row ~name m va vb)
                   | _ -> None)
                 spec.end_to_end
             in
             let same_output =
               (not same_seed) || a.output = ""
               ||
               let same = a.output = b.output in
               Printf.printf "%-17s outputs %s\n" name (if same then "identical" else "DIFFER");
               same
             in
             rows @ [ same_output ])
         wa)
  in
  if ok then 0 else 1
