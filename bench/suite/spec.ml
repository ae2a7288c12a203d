(* BENCHMARK.json: the workloads and metrics the benchmark promises. [run]
   re-reads it and refuses to print a result whose metric names differ from
   the promised ones. *)

module Json = Lsr_obs.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let str j k =
  match Json.member k j with
  | Some (Json.Str s) -> s
  | _ -> failwith (Printf.sprintf "BENCHMARK.json: missing string field %S" k)

let arr j k =
  match Json.member k j with
  | Some (Json.Arr l) -> l
  | _ -> failwith (Printf.sprintf "BENCHMARK.json: missing array field %S" k)

let metric j =
  {
    name = str j "name";
    unit_ = str j "unit";
    lower_is_better =
      (match str j "better" with
      | "lower" -> true
      | "higher" -> false
      | b -> failwith ("BENCHMARK.json: bad direction " ^ b));
    bound = (match Json.member "bound" j with Some (Json.Num b) -> Some b | _ -> None);
  }

let load file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok j ->
    {
      workloads = List.map (fun w -> str w "name") (arr j "workloads");
      end_to_end = List.map metric (arr j "end_to_end");
      per_layer = List.map metric (arr j "per_layer");
    }

(* [check promised reported] lists every promised name missing from
   [reported], every reported name not promised, and every non-finite
   value. *)
let check promised reported =
  let missing =
    List.filter_map
      (fun m ->
        if List.mem_assoc m.name reported then None
        else Some ("missing metric " ^ m.name))
      promised
  in
  let unknown =
    List.filter_map
      (fun (k, _) ->
        if List.exists (fun m -> m.name = k) promised then None
        else Some ("unknown metric " ^ k))
      reported
  in
  let bad =
    List.filter_map
      (fun (k, v) ->
        if Float.is_finite v then None else Some ("non-finite metric " ^ k))
      reported
  in
  missing @ unknown @ bad
