type counter = { c_live : bool; mutable c_count : int }
type gauge = {
  g_live : bool;
  mutable g_value : float;
  mutable g_peak : float;
  mutable g_seen : bool;
}

(* Base-2 log-scale buckets: bucket 0 collects values <= 0, bucket i >= 1
   covers (2^(i-1-offset), 2^(i-offset)]. With offset 40 and 80 buckets the
   range runs from ~1e-12 to ~5.5e11 — every virtual-time quantity fits. *)
let hist_offset = 40
let hist_size = 80

type histogram = {
  h_live : bool;
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type ev_kind = Complete | Instant

type ev = {
  ev_kind : ev_kind;
  ev_track : int;
  ev_name : string;
  ev_ts : float;
  ev_dur : float;
  ev_args : (string * string) list;
}

type span = { sp_live : bool; sp_track : int; sp_name : string; sp_t0 : float }

type t = {
  live : bool;
  instruments : (string, instrument) Hashtbl.t;
  mutable names : string list; (* registration order, newest first *)
  (* Tracing state. *)
  mutable events : ev list; (* newest first *)
  mutable n_events : int;
  track_index : (string, int) Hashtbl.t;
  mutable tracks : (string * int) list; (* (name, pid), newest first *)
  process_index : (string, int) Hashtbl.t;
  mutable processes : string list; (* newest first *)
}

let make ~live =
  {
    live;
    instruments = Hashtbl.create 64;
    names = [];
    events = [];
    n_events = 0;
    track_index = Hashtbl.create 16;
    tracks = [];
    process_index = Hashtbl.create 8;
    processes = [];
  }

let null = make ~live:false
let create () = make ~live:true
let enabled t = t.live

let null_counter = { c_live = false; c_count = 0 }
let null_gauge = { g_live = false; g_value = 0.; g_peak = 0.; g_seen = false }
let null_histogram =
  { h_live = false; h_count = 0; h_sum = 0.; h_buckets = [||] }
let null_span = { sp_live = false; sp_track = 0; sp_name = ""; sp_t0 = 0. }

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
  if not t.live then null_counter
  else
    intern t name
      (function Counter c -> Some c | _ -> None)
      (fun () -> Counter { c_live = true; c_count = 0 })

let incr ?(by = 1) c = if c.c_live then c.c_count <- c.c_count + by
let count c = c.c_count

let gauge t name =
  if not t.live then null_gauge
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
  if not t.live then null_histogram
  else
    intern t name
      (function Histogram h -> Some h | _ -> None)
      (fun () ->
        Histogram
          {
            h_live = true;
            h_count = 0;
            h_sum = 0.;
            h_buckets = Array.make hist_size 0;
          })

let bucket_of x =
  if x <= 0. || not (Float.is_finite x) then 0
  else begin
    let _, e = Float.frexp x in
    (* x = m * 2^e with m in [0.5, 1), so 2^(e-1) <= x < 2^e. *)
    let i = e + hist_offset in
    if i < 1 then 1 else if i >= hist_size then hist_size - 1 else i
  end

(* Upper bound of bucket [i] (used by the exporter). *)
let bucket_bound i = if i = 0 then 0. else Float.ldexp 1. (i - hist_offset)

let observe h x =
  if h.h_live then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    let i = bucket_of x in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

let hist_count h = h.h_count
let hist_sum h = h.h_sum

(* Nearest-rank quantile over the log-scale buckets, linearly interpolated
   within the selected bucket (matching Lsr_stats.Histogram.quantile's rank
   convention: rank = ceil(q*n), 1-based). The bucket only bounds the value,
   so the estimate is exact to within one base-2 bucket width. *)
let hist_quantile h q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Obs.hist_quantile";
  if h.h_count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let rec find i cum =
      if i >= Array.length h.h_buckets then bucket_bound (hist_size - 1)
      else
        let n = h.h_buckets.(i) in
        if cum + n >= rank then
          if i = 0 then 0.
          else begin
            let hi = bucket_bound i in
            let lo = if i = 1 then 0. else bucket_bound (i - 1) in
            lo +. (hi -. lo) *. float_of_int (rank - cum) /. float_of_int n
          end
        else find (i + 1) (cum + n)
    in
    find 0 0
  end

(* --- Tracing ----------------------------------------------------------------- *)

let process_of_track track =
  match String.index_opt track '/' with
  | Some i -> String.sub track 0 i
  | None -> track

let thread_of_track track =
  match String.index_opt track '/' with
  | Some i -> String.sub track (i + 1) (String.length track - i - 1)
  | None -> track

let track_id t track =
  match Hashtbl.find_opt t.track_index track with
  | Some id -> id
  | None ->
    let proc = process_of_track track in
    let pid =
      match Hashtbl.find_opt t.process_index proc with
      | Some pid -> pid
      | None ->
        let pid = Hashtbl.length t.process_index + 1 in
        Hashtbl.add t.process_index proc pid;
        t.processes <- proc :: t.processes;
        pid
    in
    let id = Hashtbl.length t.track_index + 1 in
    Hashtbl.add t.track_index track id;
    t.tracks <- (track, pid) :: t.tracks;
    id

let push_event t ev =
  t.events <- ev :: t.events;
  t.n_events <- t.n_events + 1

let begin_span t ~track ~name ~now =
  if not t.live then null_span
  else { sp_live = true; sp_track = track_id t track; sp_name = name; sp_t0 = now }

let end_span ?(args = []) t sp ~now =
  if sp.sp_live then
    push_event t
      {
        ev_kind = Complete;
        ev_track = sp.sp_track;
        ev_name = sp.sp_name;
        ev_ts = sp.sp_t0;
        ev_dur = now -. sp.sp_t0;
        ev_args = args;
      }

let instant ?(args = []) t ~track ~name ~now =
  if t.live then
    push_event t
      {
        ev_kind = Instant;
        ev_track = track_id t track;
        ev_name = name;
        ev_ts = now;
        ev_dur = 0.;
        ev_args = args;
      }

let event_count t = t.n_events

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
  let histogram h =
    let mean = if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count in
    let buckets =
      List.filter_map
        (fun i ->
          let n = h.h_buckets.(i) in
          if n > 0 then Some (Json.Arr [ Json.Num (bucket_bound i); int n ])
          else None)
        (List.init (Array.length h.h_buckets) Fun.id)
    in
    Json.Obj
      [
        ("count", int h.h_count);
        ("sum", Json.Num h.h_sum);
        ("mean", Json.Num mean);
        ("p50", Json.Num (hist_quantile h 0.5));
        ("p95", Json.Num (hist_quantile h 0.95));
        ("p99", Json.Num (hist_quantile h 0.99));
        ("buckets", Json.Arr buckets);
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

let trace_json t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  (* Metadata: name every process and thread. *)
  let processes = List.rev t.processes in
  List.iteri
    (fun i proc ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":"
           (i + 1));
      Json.escape buf proc;
      Buffer.add_string buf "}}")
    processes;
  List.iteri
    (fun i (track, pid) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":"
           pid (i + 1));
      Json.escape buf (thread_of_track track);
      Buffer.add_string buf "}}")
    (List.rev t.tracks);
  let pid_of_track = Array.of_list (List.rev_map snd t.tracks) in
  let emit_args args =
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Json.escape buf k;
        Buffer.add_char buf ':';
        Json.escape buf v)
      args;
    Buffer.add_char buf '}'
  in
  List.iter
    (fun ev ->
      sep ();
      let pid = pid_of_track.(ev.ev_track - 1) in
      (match ev.ev_kind with
      | Complete ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"ph\":\"X\",\"name\":%s,\"cat\":\"lsr\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s"
             (let b = Buffer.create 16 in
              Json.escape b ev.ev_name;
              Buffer.contents b)
             pid ev.ev_track
             (Json.number (ev.ev_ts *. 1e6))
             (Json.number (ev.ev_dur *. 1e6)))
      | Instant ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"ph\":\"i\",\"s\":\"t\",\"name\":%s,\"cat\":\"lsr\",\"pid\":%d,\"tid\":%d,\"ts\":%s"
             (let b = Buffer.create 16 in
              Json.escape b ev.ev_name;
              Buffer.contents b)
             pid ev.ev_track
             (Json.number (ev.ev_ts *. 1e6))));
      if ev.ev_args <> [] then emit_args ev.ev_args;
      Buffer.add_char buf '}')
    (List.rev t.events);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_trace t ~file =
  Fsutil.ensure_parent file;
  Out_channel.with_open_bin file (fun oc -> output_string oc (trace_json t))
