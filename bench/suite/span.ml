(* In-memory spans around the benchmark's own calls into the library — never
   inside it. A span has a name, a start and an end on the monotonic clock,
   the span that encloses it and a trace id shared by the spans of one
   transaction. Recording is off unless [enable] was called, and then [with_]
   costs one branch. *)

type span = {
  name : string;
  trace : int;
  id : int;
  parent : int;  (** -1 for a root span *)
  start_ns : int64;
  end_ns : int64;
}

let now_ns = Monotonic_clock.now
let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let enable () = enabled := true

let with_ ?(trace = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      stack := List.tl !stack;
      spans := { name; trace; id; parent; start_ns; end_ns } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let recorded () = List.rev !spans
let duration_ns s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

type total = { count : int; total_ns : float; self_ns : float }

(* Per-name totals. A span's self time is its duration minus the time its
   child spans cover; spans nest strictly (one thread, stack discipline), so
   that is the duration minus the sum of the children's durations. *)
let totals spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s
          +. Option.value ~default:0. (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = duration_ns s in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_ns s.id) in
      let t =
        Option.value ~default:{ count = 0; total_ns = 0.; self_ns = 0. }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { count = t.count + 1; total_ns = t.total_ns +. d; self_ns = t.self_ns +. self })
    spans;
  by_name

let total_of totals name =
  Option.value ~default:{ count = 0; total_ns = 0.; self_ns = 0. }
    (Hashtbl.find_opt totals name)

(* Per-name count, total and self time (ms), names sorted. *)
let totals_json spans =
  let open Lsr_obs.Json in
  let t = totals spans in
  Obj
    (List.map
       (fun name ->
         let x = total_of t name in
         ( name,
           Obj
             [
               ("count", Num (float_of_int x.count));
               ("total_ms", Num (x.total_ns /. 1e6));
               ("self_ms", Num (x.self_ns /. 1e6));
             ] ))
       (List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])))

(* Chrome trace "complete" events, microsecond timestamps relative to
   [origin_ns]. *)
let chrome_events ~pid ~origin_ns spans =
  let open Lsr_obs.Json in
  List.map
    (fun s ->
      Obj
        [
          ("name", Str s.name);
          ("ph", Str "X");
          ("pid", Num (float_of_int pid));
          ("tid", Num 1.);
          ("ts", Num (Int64.to_float (Int64.sub s.start_ns origin_ns) /. 1e3));
          ("dur", Num (duration_ns s /. 1e3));
          ( "args",
            Obj
              [
                ("id", Num (float_of_int s.id));
                ("parent", Num (float_of_int s.parent));
                ("trace", Num (float_of_int s.trace));
              ] );
        ])
    spans
