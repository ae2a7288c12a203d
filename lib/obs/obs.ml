type counter = { c_live : bool; mutable c_count : int }
type gauge = {
  g_live : bool;
  mutable g_value : float;
  mutable g_peak : float;
  mutable g_seen : bool;
}

type histogram = { h_live : bool; hist : Histogram.t }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  instruments : (string, instrument) Hashtbl.t;
  mutable names : string list; (* registration order, newest first *)
}

let create () = { instruments = Hashtbl.create 64; names = [] }

(* The one disabled registry, told apart by identity: nothing is ever
   interned into it. *)
let null = create ()
let enabled t = t != null

let null_counter = { c_live = false; c_count = 0 }
let null_gauge = { g_live = false; g_value = 0.; g_peak = 0.; g_seen = false }
(* Shared but never written: [observe] checks [h_live] first. *)
let null_histogram = { h_live = false; hist = Histogram.create () }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let intern t name wanted fresh =
  match Hashtbl.find_opt t.instruments name with
  | Some existing -> (
    match wanted existing with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Obs: %S is already a %s" name (kind_name existing)))
  | None ->
    let i = fresh () in
    Hashtbl.add t.instruments name i;
    t.names <- name :: t.names;
    (match wanted i with Some x -> x | None -> assert false)

let counter t name =
  if t == null then null_counter
  else
    intern t name
      (function Counter c -> Some c | _ -> None)
      (fun () -> Counter { c_live = true; c_count = 0 })

let incr ?(by = 1) c = if c.c_live then c.c_count <- c.c_count + by
let count c = c.c_count

let gauge t name =
  if t == null then null_gauge
  else
    intern t name
      (function Gauge g -> Some g | _ -> None)
      (fun () ->
        Gauge { g_live = true; g_value = 0.; g_peak = 0.; g_seen = false })

let set_gauge g v =
  if g.g_live then begin
    g.g_value <- v;
    if (not g.g_seen) || v > g.g_peak then g.g_peak <- v;
    g.g_seen <- true
  end

let gauge_value g = g.g_value
let gauge_peak g = g.g_peak

let histogram t name =
  if t == null then null_histogram
  else
    intern t name
      (function Histogram h -> Some h | _ -> None)
      (fun () -> Histogram { h_live = true; hist = Histogram.create () })

let observe h x = if h.h_live then Histogram.record h.hist x
let hist_count h = Histogram.count h.hist
let hist_sum h = Histogram.sum h.hist
let hist_quantile h q = Histogram.quantile h.hist q

(* --- Export ------------------------------------------------------------------ *)

let names t = List.sort String.compare t.names

let metrics_json t =
  let names = names t in
  let pick kind =
    List.filter_map
      (fun name ->
        Option.bind (Hashtbl.find_opt t.instruments name) (fun i ->
            Option.map (fun x -> (name, x)) (kind i)))
      names
  in
  let int n = Json.Num (float_of_int n) in
  let gauge g =
    Json.Obj [ ("last", Json.Num g.g_value); ("peak", Json.Num g.g_peak) ]
  in
  let histogram { hist = h; _ } =
    let n = Histogram.count h and sum = Histogram.sum h in
    let buckets =
      Histogram.fold
        (fun upper k acc -> Json.Arr [ Json.Num upper; int k ] :: acc)
        h []
    in
    Json.Obj
      [
        ("count", int n);
        ("sum", Json.Num sum);
        ("mean", Json.Num (if n = 0 then 0. else sum /. float_of_int n));
        ("p50", Json.Num (Histogram.quantile h 0.5));
        ("p95", Json.Num (Histogram.quantile h 0.95));
        ("p99", Json.Num (Histogram.quantile h 0.99));
        ("buckets", Json.Arr (List.rev buckets));
      ]
  in
  let section kind render =
    Json.Obj (List.map (fun (name, x) -> (name, render x)) (pick kind))
  in
  Json.Obj
    [
      ( "counters",
        section
          (function Counter c -> Some c | _ -> None)
          (fun c -> int c.c_count) );
      ("gauges", section (function Gauge g -> Some g | _ -> None) gauge);
      ( "histograms",
        section (function Histogram h -> Some h | _ -> None) histogram );
    ]
