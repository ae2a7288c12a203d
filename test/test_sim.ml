(* Tests for the discrete-event simulation engine (lsr_sim): event ordering,
   processes, synchronization primitives, the processor-sharing resource
   against a round-robin reference, random streams and statistics. *)

open Lsr_sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Binheap ----------------------------------------------------------------- *)

let test_binheap_basic () =
  let h = Binheap.create ~cmp:Int.compare ~dummy:0 in
  check_bool "empty" true (Binheap.is_empty h);
  List.iter (Binheap.push h) [ 5; 1; 4; 1; 3 ];
  check_int "length" 5 (Binheap.length h);
  check_int "peek" 1 (Option.get (Binheap.peek h));
  let drained = List.init 5 (fun _ -> Binheap.pop h) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] drained;
  check_bool "empty again" true (Binheap.is_empty h)

let test_binheap_pop_empty () =
  let h = Binheap.create ~cmp:Int.compare ~dummy:0 in
  Alcotest.check_raises "pop empty" (Invalid_argument "Binheap.pop: empty heap")
    (fun () -> ignore (Binheap.pop h))

let prop_binheap_sorts =
  QCheck.Test.make ~name:"binheap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Binheap.create ~cmp:Int.compare ~dummy:0 in
      List.iter (Binheap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Binheap.pop h) in
      drained = List.sort Int.compare xs)

(* Popped elements must not stay reachable through the heap's array: its
   vacated slots would otherwise pin every fired job and the continuation it
   captures. *)
let test_binheap_pop_releases () =
  let h = Binheap.create ~cmp:(fun a b -> Int.compare !a !b) ~dummy:(ref 0) in
  let weak = Weak.create 4 in
  let fill () =
    List.iteri
      (fun i x ->
        let r = ref x in
        Weak.set weak i (Some r);
        Binheap.push h r)
      [ 3; 1; 4; 2 ]
  in
  fill ();
  for _ = 1 to 4 do
    ignore (Sys.opaque_identity (Binheap.pop h))
  done;
  Gc.full_major ();
  for i = 0 to 3 do
    check_bool (Printf.sprintf "element %d collected" i) false (Weak.check weak i)
  done;
  (* The heap itself must outlive the collection for the check to mean
     anything. *)
  check_int "heap still in use" 0 (Binheap.length h)

(* --- Engine ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Engine.after eng ~delay:3. (note "c");
  Engine.after eng ~delay:1. (note "a");
  Engine.after eng ~delay:2. (note "b");
  Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3. (Engine.now eng)

let test_engine_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.after eng ~delay:1. (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref [] in
  Engine.after eng ~delay:1. (fun () -> fired := 1 :: !fired);
  Engine.after eng ~delay:5. (fun () -> fired := 5 :: !fired);
  Engine.run ~until:2. eng;
  Alcotest.(check (list int)) "only early event" [ 1 ] !fired;
  check_float "clock parked at until" 2. (Engine.now eng);
  check_int "one event fired" 1 (Engine.events_processed eng);
  Engine.run eng;
  Alcotest.(check (list int)) "late event fires on resume" [ 5; 1 ] !fired;
  check_float "clock at the late event" 5. (Engine.now eng)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.after eng ~delay:1. (fun () ->
      log := "outer" :: !log;
      Engine.after eng ~delay:1. (fun () -> log := "inner" :: !log));
  Engine.run eng;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final time" 2. (Engine.now eng)

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.after: delay must be finite and non-negative")
    (fun () -> Engine.after eng ~delay:(-1.) ignore);
  Alcotest.check_raises "negative argument delay"
    (Invalid_argument "Engine.after_arg: delay must be finite and non-negative")
    (fun () -> Engine.after_arg eng ~delay:(-1.) ~arg:0 ignore)

(* A zero period would re-fire the chain at one instant forever. *)
let test_engine_every_rejects_zero_period () =
  let eng = Engine.create () in
  List.iter
    (fun period ->
      Alcotest.check_raises (Printf.sprintf "period %g" period)
        (Invalid_argument "Engine.every: period must be positive and finite")
        (fun () -> Engine.every eng period ignore))
    [ 0.; -0.; -1.; Float.nan; Float.infinity ];
  check_bool "nothing scheduled" false (Engine.step eng)

(* An event cannot be cancelled; its owner supersedes it instead, as
   {!Resource} does: the events share one action that reads its generation
   through [Engine.arg] and returns at once when that generation is stale.
   Superseding an event parked beyond [until] must keep its work from ever
   running, and resuming the run must not disturb the clock or the
   queue. *)
let test_engine_until_cancel_interaction () =
  let eng = Engine.create () in
  let log = ref [] in
  let current = [| 0; 1; 2 |] in
  let tags = [| "early"; "late"; "later" |] in
  (* Event [i] carries generation [i] in slot [i]. *)
  let act () =
    let g = Engine.arg eng in
    if current.(g) = g then log := tags.(g) :: !log
  in
  Engine.after_arg eng ~delay:1. ~arg:0 act;
  Engine.after_arg eng ~delay:5. ~arg:1 act;
  Engine.after_arg eng ~delay:6. ~arg:2 act;
  Engine.run ~until:2. eng;
  check_float "parked at until" 2. (Engine.now eng);
  check_int "one event fired" 1 (Engine.events_processed eng);
  current.(1) <- -1;
  Engine.run eng;
  Alcotest.(check (list string))
    "superseded event does no work" [ "early"; "later" ] (List.rev !log);
  check_int "the superseded event fired as a no-op" 3
    (Engine.events_processed eng);
  check_float "clock at the surviving event" 6. (Engine.now eng)

(* FIFO tie-breaking survives superseded events and an until-pause:
   same-instant events fire in scheduling order, superseded ones doing no
   work. *)
let test_engine_fifo_ties_with_cancel_and_until () =
  let eng = Engine.create () in
  let log = ref [] in
  let live = Array.make 5 true in
  let act () =
    let i = Engine.arg eng in
    if live.(i) then log := i :: !log
  in
  List.iter (fun i -> Engine.after_arg eng ~delay:2. ~arg:i act) [ 0; 1; 2; 3; 4 ];
  live.(1) <- false;
  live.(3) <- false;
  (* Pausing before the instant must not perturb the tie order. *)
  Engine.run ~until:1. eng;
  check_int "nothing fired before the instant" 0 (Engine.events_processed eng);
  Engine.run eng;
  Alcotest.(check (list int))
    "survivors work in scheduling order" [ 0; 2; 4 ] (List.rev !log);
  check_int "every event fired" 5 (Engine.events_processed eng)

(* An event at exactly [until] fires, the clock stops at exactly [until],
   and running an empty engine leaves the clock where it is. *)
let test_engine_until_exact_boundary () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.after eng ~delay:3. (fun () -> fired := true);
  Engine.run ~until:3. eng;
  check_bool "event at exactly until fires" true !fired;
  check_float "clock is exactly until" 3. (Engine.now eng);
  Engine.run eng;
  check_float "an empty run does not advance the clock" 3. (Engine.now eng)

(* The engine against a reference model, a sorted list of (time, seq)
   pairs. A schedule mixes zero delays (the FIFO lane), positive delays that
   tie, and tiny delays with [now +. d = now] (heap events at the current
   instant, competing with the lane). Event [i]'s action schedules its
   [children]; between [run ~until] chunks the test schedules more events
   from outside any action.

   Every third event ([with_arg]) is scheduled with [Engine.after_arg] and
   the random argument drawn beside its delay, the others with
   [Engine.after], so the same run mixes both kinds in the heap. An
   argument event waits in the heap even at delay 0, and its action logs
   what [Engine.arg] reads, which must be its own argument. *)
let with_arg id = id mod 3 = 1

let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return 0.);
        (2, return 1e-18);
        (3, map (fun k -> float_of_int k *. 0.5) (int_range 1 4));
      ])

(* A delay, and the argument the event carries if it is [with_arg]. *)
let event_gen = QCheck.Gen.pair delay_gen QCheck.Gen.int

let schedule_arb =
  let open QCheck.Gen in
  let chunk = pair (float_bound_inclusive 4.) (list_size (int_bound 3) event_gen) in
  QCheck.make
    (triple
       (list_size (int_range 1 6) event_gen)
       (array_size (int_bound 40) (list_size (int_bound 2) event_gen))
       (list_size (int_bound 3) chunk))

(* What one [run ?until] chunk left behind: fired ids in order, each with
   the argument its action read (0 unless [with_arg]), the clock and the
   events fired in total. *)
type engine_view = { order : (int * int) list; clock : float; fired : int }

let children_of children id =
  if id < Array.length children then children.(id) else []

(* The model keeps its pending events as a list sorted by (time, id). *)
let model_run (initial, children, chunks) =
  let now = ref 0. and next = ref 0 and pending = ref [] and log = ref [] in
  let rec insert ((time, id, _) as ev) = function
    | ((time', id', _) as ev') :: rest when time' < time || (time' = time && id' < id)
      ->
      ev' :: insert ev rest
    | rest -> ev :: rest
  in
  let add (d, arg) =
    let id = !next in
    incr next;
    (!now +. d, id, if with_arg id then arg else 0)
  in
  let schedule e = pending := insert (add e) !pending in
  let rec run ?(until = infinity) () =
    match !pending with
    | (time, id, arg) :: rest when time <= until ->
      pending := rest;
      now := time;
      log := (id, arg) :: !log;
      List.iter schedule (children_of children id);
      run ~until ()
    | _ -> if until < infinity then now := Float.max !now until
  in
  let view () = { order = List.rev !log; clock = !now; fired = List.length !log } in
  (* The initial batch has increasing ids, so a stable sort by time puts it
     in (time, id) order. *)
  pending :=
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (List.map add initial);
  let views =
    List.map
      (fun (until, outside) ->
        run ~until ();
        let v = view () in
        List.iter schedule outside;
        v)
      chunks
  in
  run ();
  views @ [ view () ]

(* The same schedule on the engine. *)
let engine_run (initial, children, chunks) =
  let eng = Engine.create () in
  let next = ref 0 and log = ref [] in
  let rec schedule (d, arg) =
    let id = !next in
    incr next;
    let action () =
      log := (id, if with_arg id then Engine.arg eng else 0) :: !log;
      List.iter schedule (children_of children id)
    in
    if with_arg id then Engine.after_arg eng ~delay:d ~arg action
    else Engine.after eng ~delay:d action
  in
  let view () =
    { order = List.rev !log; clock = Engine.now eng;
      fired = Engine.events_processed eng }
  in
  List.iter schedule initial;
  let views =
    List.map
      (fun (until, outside) ->
        Engine.run ~until eng;
        let v = view () in
        List.iter schedule outside;
        v)
      chunks
  in
  (* The last chunk drains the queues one [step] at a time. *)
  while Engine.step eng do () done;
  views @ [ view () ]

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine fires in (time, seq) order" ~count:500
    schedule_arb (fun (initial, children, chunks) ->
      let chunks = List.sort (fun (a, _) (b, _) -> Float.compare a b) chunks in
      model_run (initial, children, chunks) = engine_run (initial, children, chunks))

(* The same differential at depth: 10^3 to 10^4 pending events fill six
   to eight levels of the 4-ary heap, where [prop_engine_matches_model]
   never fills three. Delays come from the same small set, so same-time
   ties between the lane and the heap are common. *)
let deep_schedule_arb =
  let open QCheck.Gen in
  let children = frequency [ (1, return []); (2, map (fun e -> [ e ]) event_gen) ] in
  let gen =
    int_range 1_000 10_000 >>= fun depth ->
    triple
      (list_repeat depth event_gen)
      (array_repeat (2 * depth) children)
      (list_size (int_range 2 5)
         (pair (float_bound_inclusive 4.) (list_size (int_bound 200) event_gen)))
  in
  QCheck.make
    ~print:(fun (initial, _, chunks) ->
      Printf.sprintf "%d initial events, %d chunks" (List.length initial)
        (List.length chunks))
    gen

let prop_engine_matches_model_deep =
  QCheck.Test.make ~name:"engine matches the model at depth" ~count:4
    deep_schedule_arb (fun (initial, children, chunks) ->
      let chunks = List.sort (fun (a, _) (b, _) -> Float.compare a b) chunks in
      model_run (initial, children, chunks) = engine_run (initial, children, chunks))

(* --- Process ------------------------------------------------------------------ *)

let test_process_delay () =
  let eng = Engine.create () in
  let times = ref [] in
  Process.spawn eng (fun () ->
      Process.delay 1.;
      times := Engine.now eng :: !times;
      Process.delay 2.;
      times := Engine.now eng :: !times);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "delays accumulate" [ 1.; 3. ]
    (List.rev !times);
  (* [Engine.every] fires where a process looping on [delay] resumes: at
     the same instants, in the same order against events tied with its
     start and its ticks, in as many events. *)
  let trace ~process =
    let eng = Engine.create () in
    let log = ref [] in
    let note name () = log := (name, Engine.now eng) :: !log in
    Engine.after eng ~delay:1. (note "before");
    if process then
      Process.spawn eng (fun () ->
          let rec loop () =
            Process.delay 1.;
            note "tick" ();
            loop ()
          in
          loop ())
    else Engine.every eng 1. (note "tick");
    Engine.after eng ~delay:0. (note "zero");
    Engine.after eng ~delay:1. (note "after");
    Engine.run ~until:3.5 eng;
    (List.rev !log, Engine.events_processed eng)
  in
  Alcotest.(check (pair (list (pair string (float 0.))) int))
    "every = a delay loop" (trace ~process:true) (trace ~process:false)

let test_process_spawn_within_process () =
  let eng = Engine.create () in
  let log = ref [] in
  Process.spawn eng (fun () ->
      log := "parent" :: !log;
      Process.spawn eng (fun () ->
          Process.delay 1.;
          log := "child" :: !log);
      Process.delay 2.;
      log := "parent-done" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "child interleaves"
    [ "parent"; "child"; "parent-done" ]
    (List.rev !log)

(* --- Seqcond ------------------------------------------------------------------- *)

let test_seqcond_threshold_order () =
  let eng = Engine.create () in
  let sc = Seqcond.create eng in
  let woken = ref [] in
  (* Parked from outside any process: a waiter holds no process. *)
  List.iter
    (fun (name, threshold) ->
      Seqcond.park sc ~need:threshold (fun () -> woken := name :: !woken))
    [ ("a", 3); ("b", 1); ("c", 2); ("d", 1) ];
  check_int "all parked, none ran" 4 (Seqcond.waiting sc);
  Engine.after eng ~delay:1. (fun () ->
      Seqcond.advance sc 1;
      Engine.after eng ~delay:1. (fun () ->
          check_int "only the satisfied waiters woke" 2 (Seqcond.waiting sc);
          Seqcond.advance sc 3));
  Engine.run eng;
  Alcotest.(check (list string))
    "woken as thresholds pass, lowest first, then in registration order"
    [ "b"; "d"; "c"; "a" ] (List.rev !woken);
  check_int "all released" 0 (Seqcond.waiting sc);
  check_int "level sticks at the high-water mark" 3 (Seqcond.level sc)

let test_seqcond_rising_threshold () =
  (* A pooled session's required seq can rise while one of its reads is
     already parked: the waiter's action re-checks after waking and waits
     again until the new threshold is reached, as a blocked read's does. *)
  let eng = Engine.create () in
  let sc = Seqcond.create eng in
  let need = ref 2 in
  let resumed_at = ref 0. in
  let finished_at = ref 0. in
  let rec wake () =
    if !need > Seqcond.level sc then Seqcond.wait sc ~need:!need ~arg:0 wake
    else begin
      (* The action runs in an event of its own: it may wait on. *)
      resumed_at := Engine.now eng;
      Engine.after eng ~delay:1. (fun () -> finished_at := Engine.now eng)
    end
  in
  Seqcond.wait sc ~need:!need ~arg:0 wake;
  Engine.after eng ~delay:1. (fun () ->
      need := 5 (* rises before the old threshold is reached *);
      Seqcond.advance sc 2;
      Engine.after eng ~delay:1. (fun () ->
          check_int "parked again at the risen threshold" 1 (Seqcond.waiting sc);
          Seqcond.advance sc 5));
  Engine.run eng;
  check_float "resumed only once the risen threshold passed" 2. !resumed_at;
  check_float "ran on after resuming" 3. !finished_at

let test_seqcond_immediate () =
  let eng = Engine.create () in
  let sc = Seqcond.create eng in
  Seqcond.advance sc 7;
  let ran = ref false in
  Seqcond.park sc ~need:7 (fun () -> ran := true);
  check_bool "threshold already reached runs the continuation now" true !ran;
  check_int "nothing parked" 0 (Seqcond.waiting sc);
  check_bool "no event scheduled" false (Engine.step eng)

(* One seeded run of a pooled-session workload. Every virtual second [k]
   one control event raises some sessions' seq(c), advances the level and
   registers new waiters on random sessions, each waiting for its
   session's current seq(c). [registrar eng sc] is the run's [register id
   threshold k], which registers waiter [id]; the waiter must call [k] once
   released. Returns each waiter's release instant and the run's release
   log, in run order. *)
let seqcond_pool_run ~seed registrar =
  let rng = Random.State.make [| seed |] in
  let eng = Engine.create () in
  let sc = Seqcond.create eng in
  let register = registrar eng sc in
  let sessions = Array.make 4 0 in
  let released = Hashtbl.create 64 in
  let log = ref [] in
  let next_id = ref 0 in
  Seqcond.advance sc 0;
  (* The control event of second [k]; it arms the next one last, so a
     polling waiter registered in it polls after that next control event. *)
  let rec control k () =
    Array.iteri
      (fun s seq ->
        if Random.State.int rng 10 < 3 then
          sessions.(s) <- seq + Random.State.int rng 4)
      sessions;
    if k = 40 then Seqcond.advance sc max_int
    else if Random.State.int rng 10 < 6 then
      Seqcond.advance sc (Seqcond.level sc + Random.State.int rng 3);
    if k < 40 then begin
      for _ = 1 to Random.State.int rng 4 do
        let id = !next_id and s = Random.State.int rng 4 in
        incr next_id;
        register id (fun () -> sessions.(s)) (fun () ->
            Hashtbl.replace released id (Engine.now eng);
            log := id :: !log)
      done;
      Engine.after eng ~delay:1. (control (k + 1))
    end
  in
  Engine.after eng ~delay:1. (control 1);
  Engine.run eng;
  check_int "every waiter released" !next_id (Hashtbl.length released);
  (released, List.rev !log)

(* Row waiters carry [row_arg id], which falls as [id] rises, so a queue
   that broke ties by argument instead of registration would run them in
   the wrong order. It is its own inverse. *)
let row_arg id = 1_000_000 - id

let test_seqcond_matches_polling () =
  for seed = 1 to 20 do
    (* Reference: each waiter polls the level each second, after that
       second's control event, in a chain of timers started by a zero-delay
       event. *)
    let polled, _ =
      seqcond_pool_run ~seed (fun eng sc _ threshold k ->
          let rec poll () =
            if threshold () > Seqcond.level sc then
              Engine.after eng ~delay:1. poll
            else k ()
          in
          Engine.after eng ~delay:0. poll)
    in
    (* Parked: even waiters as rows sharing one action, odd ones parked
       with a closure of their own that re-reads the threshold when
       released and parks again if it rose. [keys] holds the need the queue saw at each waiter's
       latest registration, and that registration's rank among both
       kinds. *)
    let keys = Hashtbl.create 64 in
    let registrations = ref 0 in
    let note id need =
      Hashtbl.replace keys id (need, !registrations);
      incr registrations
    in
    let parked, log =
      seqcond_pool_run ~seed (fun eng sc ->
          let rows = Hashtbl.create 64 in
          let rec run id =
            let threshold, k = Hashtbl.find rows id in
            let need = threshold () in
            if need <= Seqcond.level sc then k ()
            else begin
              note id need;
              Seqcond.wait sc ~need ~arg:(row_arg id) wake
            end
          and wake () = run (row_arg (Engine.arg eng)) in
          fun id threshold k ->
            if id mod 2 = 0 then begin
              Hashtbl.replace rows id (threshold, k);
              run id
            end
            else
              let rec go () =
                let need = threshold () in
                if need > Seqcond.level sc then note id need;
                Seqcond.park sc ~need (fun () ->
                    if threshold () > Seqcond.level sc then go () else k ())
              in
              go ())
    in
    Hashtbl.iter
      (fun id at ->
        check_float
          (Printf.sprintf "seed %d: waiter %d released when polling sees it" seed id)
          (Hashtbl.find polled id) at)
      parked;
    (* Waiters woken in the same instant run in need order, then
       registration order, whatever their kind; one released inline never
       registered. *)
    let rec ordered = function
      | a :: (b :: _ as rest) ->
        (match (Hashtbl.find_opt keys a, Hashtbl.find_opt keys b) with
        | Some ka, Some kb when Hashtbl.find parked a = Hashtbl.find parked b ->
          check_bool
            (Printf.sprintf "seed %d: waiter %d runs before waiter %d" seed a b)
            true (compare ka kb < 0)
        | _ -> ());
        ordered rest
      | [ _ ] | [] -> ()
    in
    ordered log
  done

(* --- Resource ------------------------------------------------------------------- *)

(* The paper's site server (§5): round robin with a time slice of
   [quantum]. The head job gets at most one slice, then re-enters the back
   of the line unless finished. It is the reference the processor-sharing
   [Resource] stands in for ("rr approximates ps"). *)
module Rr = struct
  type job = { mutable remaining : float; k : unit -> unit }

  type t = {
    eng : Engine.t;
    quantum : float;
    line : job Queue.t;
    mutable serving : bool;
  }

  let create eng ~quantum = { eng; quantum; line = Queue.create (); serving = false }

  let rec serve t =
    match Queue.take_opt t.line with
    | None -> t.serving <- false
    | Some job ->
      t.serving <- true;
      let slice = Float.min t.quantum job.remaining in
      Engine.after t.eng ~delay:slice (fun () ->
          job.remaining <- job.remaining -. slice;
          if job.remaining <= 1e-9 then Engine.after t.eng ~delay:0. job.k
          else Queue.add job t.line;
          serve t)

  let use t amount k =
    Queue.add { remaining = amount; k } t.line;
    if not t.serving then serve t
end

let test_resource_ps_equal_share () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  let finish = Hashtbl.create 4 in
  let job name amount =
    Resource.use res amount (fun () ->
        Hashtbl.replace finish name (Engine.now eng))
  in
  job "a" 1.;
  job "b" 1.;
  Engine.run eng;
  (* Both share the server, so both finish at t=2. *)
  check_float "a shares" 2. (Hashtbl.find finish "a");
  check_float "b shares" 2. (Hashtbl.find finish "b")

let test_resource_ps_late_arrival () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  let finish = Hashtbl.create 4 in
  Resource.use res 2. (fun () -> Hashtbl.replace finish "first" (Engine.now eng));
  Engine.after eng ~delay:1. (fun () ->
      Resource.use res 0.5 (fun () ->
          Hashtbl.replace finish "late" (Engine.now eng)));
  Engine.run eng;
  (* First runs alone 0-1 (1 unit done), then shares: late needs 0.5 at rate
     1/2 -> done at t=2; first finishes its remaining 0.5 alone by 2.5. *)
  check_float "late job" 2. (Hashtbl.find finish "late");
  check_float "first job" 2.5 (Hashtbl.find finish "first")

let test_resource_round_robin () =
  let eng = Engine.create () in
  let res = Rr.create eng ~quantum:0.1 in
  let finish = Hashtbl.create 4 in
  let job name amount =
    Rr.use res amount (fun () -> Hashtbl.replace finish name (Engine.now eng))
  in
  job "a" 0.5;
  job "b" 0.5;
  Engine.run eng;
  (* Alternating 0.1 slices: a finishes at 0.9, b at 1.0. *)
  check_float "a alternates" 0.9 (Hashtbl.find finish "a");
  check_float "b alternates" 1.0 (Hashtbl.find finish "b")

let test_resource_rr_approximates_ps () =
  (* With a slice much smaller than jobs, round robin and processor sharing
     agree — the modelling substitution used by the experiments. *)
  let run use =
    let eng = Engine.create () in
    let use = use eng in
    let finish = ref [] in
    for i = 1 to 4 do
      Engine.after eng
        ~delay:(0.3 *. float_of_int i)
        (fun () -> use 1. (fun () -> finish := (i, Engine.now eng) :: !finish))
    done;
    Engine.run eng;
    List.sort compare !finish
  in
  let rr = run (fun eng -> Rr.use (Rr.create eng ~quantum:0.001)) in
  let ps = run (fun eng -> Resource.use (Resource.create eng)) in
  List.iter2
    (fun (i, t_rr) (_, t_ps) ->
      Alcotest.(check (float 0.01))
        (Printf.sprintf "job %d same completion" i)
        t_ps t_rr)
    rr ps

(* A zero-amount job completes at its arrival instant and moves no other
   job's finish time. Its continuation runs in an event of its own, after
   the completion event: behind an event queued between the two. *)
let test_resource_zero_amount () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  let finish = Hashtbl.create 4 in
  let log = ref [] in
  let job name amount =
    Resource.use res amount (fun () ->
        log := name :: !log;
        Hashtbl.replace finish name (Engine.now eng))
  in
  job "slow" 2.;
  job "free" 0.;
  Engine.after eng ~delay:0. (fun () -> log := "queued" :: !log);
  Engine.run eng;
  check_float "zero job completes at arrival" 0. (Hashtbl.find finish "free");
  check_float "slow job unaffected" 2. (Hashtbl.find finish "slow");
  Alcotest.(check (list string))
    "a continuation never runs inside the completion event"
    [ "queued"; "free"; "slow" ] (List.rev !log);
  (* One completion event and one continuation event per job, the queued
     one, and the completion armed at 2 s by the slow job's arrival: the
     free job's arrival superseded it, and it fires there as a no-op. *)
  check_int "events" 6 (Engine.events_processed eng)

(* Every arrival moves the next completion instant and arms a completion
   event of its own; the one it supersedes is not cancelled but fires as a
   no-op. [k] equal jobs arriving at one instant arm [k] completions, at
   1, 2, ..., [k] seconds, and only the last completes them, all at once:
   [k - 1] no-ops, one completion and [k] continuation events. *)
let test_resource_superseded_completions () =
  List.iter
    (fun k ->
      let eng = Engine.create () in
      let res = Resource.create eng in
      let finished = ref [] in
      for _ = 1 to k do
        Resource.use res 1. (fun () -> finished := Engine.now eng :: !finished)
      done;
      Engine.run eng;
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "%d jobs finish together" k)
        (List.init k (fun _ -> float_of_int k))
        !finished;
      check_int
        (Printf.sprintf "%d arrivals: events" k)
        ((k - 1) + 1 + k)
        (Engine.events_processed eng))
    [ 1; 2; 3; 10; 100 ]

(* Price guard: at a filled capacity (the resource's job heap and the
   engine's queue already grown past what the measured arrivals need), an
   arrival allocates exactly 12 minor words, all of them the job's: its
   6-word record with a boxed finish virtual time, the [Some] of the heap
   peek that finds the next completion, and the boxed delay of the
   completion it arms, which costs the engine no record, handle or option
   of its own. The arrival's float state is updated in place. *)
let test_resource_use_price () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  let jobs = 1_000 in
  for _ = 1 to 2 * jobs do
    Resource.use res 1. ignore
  done;
  Engine.run eng;
  let before = Gc.minor_words () in
  for _ = 1 to jobs do
    Resource.use res 1. ignore
  done;
  Alcotest.(check (float 0.)) "minor words per arrival" 12.
    ((Gc.minor_words () -. before) /. float_of_int jobs);
  Engine.run eng;
  check_int "drained" 0 (Resource.load res)

let test_resource_load () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  Resource.use res 2. ignore;
  Resource.use res 2. ignore;
  Engine.after eng ~delay:1. (fun () ->
      check_int "two jobs in service" 2 (Resource.load res));
  Engine.run eng;
  check_int "drained" 0 (Resource.load res)

(* Busy time is charged lazily, so utilization sampled mid-service is exact
   — not stale until the next completion event. *)
let test_resource_busy_midservice () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  Resource.use res 2. ignore;
  Engine.after eng ~delay:1. (fun () ->
      check_float "busy mid-service" 1. (Resource.busy_time res);
      check_float "utilization mid-service" 1. (Resource.utilization res));
  Engine.run eng;
  check_float "busy at end" 2. (Resource.busy_time res)

(* A sampler firing at the same instant as (but before) PS completion events
   must not count the finished-but-unfired jobs. *)
let test_resource_ps_load_no_overshoot () =
  let eng = Engine.create () in
  let res = Resource.create eng in
  (* Scheduled first, so FIFO tie-breaking fires it before the completions
     due at the same instant. *)
  Engine.after eng ~delay:2. (fun () ->
      check_int "no finished-but-unfired jobs counted" 0 (Resource.load res));
  Resource.use res 1. ignore;
  Resource.use res 1. ignore;
  Engine.run eng;
  check_int "drained" 0 (Resource.load res)

(* Exact telemetry on a hand-computable scenario: two unit jobs arriving
   together at t=0 share the server and both finish at t=2, so each waits
   one second beyond its own demand. *)
let test_resource_telemetry_counts () =
  let eng = Engine.create () in
  let res = Resource.create ~name:"srv" eng in
  Resource.use res 1. ignore;
  Resource.use res 1. ignore;
  Engine.run eng;
  Alcotest.(check string) "name" "srv" (Resource.name res);
  check_int "arrivals" 2 (Resource.arrivals res);
  check_int "completions" 2 (Resource.completions res);
  check_float "service total" 2. (Stat.total (Resource.service_stat res));
  check_float "wait mean" 1. (Stat.mean (Resource.wait_stat res));
  (* 2 jobs over [0,2): integral 4 over 2 seconds. *)
  check_float "queue area" 4. (Resource.mean_queue_length res *. Engine.now eng);
  check_float "mean queue length" 2. (Resource.mean_queue_length res);
  check_float "throughput" 1. (Resource.throughput res);
  check_float "utilization" 1. (Resource.utilization res);
  match Resource.littles_law_gap res with
  | None -> Alcotest.fail "expected a Little's-law gap"
  | Some gap -> check_float "littles gap exact" 0. gap

(* Little's law L = λ·W as a pathwise invariant: arrivals stop at the
   horizon and the server drains, so the run starts and ends empty and the
   queue-length integral equals the summed sojourns on every sample path,
   up to float rounding. *)
let prop_resource_littles_law =
  QCheck.Test.make ~name:"Little's law holds under Poisson arrivals" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let eng = Engine.create () in
      let res = Resource.create eng in
      let rng = Rng.create seed in
      let rec arrive () =
        if Engine.now eng <= 1000. then begin
          Resource.use res (Rng.exponential rng ~mean:0.4) ignore;
          Engine.after eng ~delay:(Rng.exponential rng ~mean:1.0) arrive
        end
      in
      Engine.after eng ~delay:(Rng.exponential rng ~mean:1.0) arrive;
      Engine.run eng;
      Resource.load res = 0
      &&
      match Resource.littles_law_gap res with
      | None -> false
      | Some gap -> gap < 1e-9)

(* Work conservation: whatever the arrival pattern, every job completes,
   total delivered service equals total demand, and no job finishes before
   [arrival + amount]. Beside those jobs, a chain of [k] back-to-back jobs of
   [d] seconds (each submitted as the previous one completes) and one job of
   [k·d] seconds submitted at the same instant give the same completion
   instants, for the competing jobs and for the chain: under processor
   sharing a rate depends only on how many jobs are present, which is why a
   transaction can be one job instead of one per operation. *)
let prop_resource_work_conservation =
  let job_gen =
    QCheck.Gen.(
      list_size (int_range 1 15)
        (pair (float_bound_inclusive 10.) (float_bound_exclusive 5.)))
  in
  let chain_gen =
    QCheck.Gen.(
      triple (float_bound_inclusive 10.) (int_range 1 6)
        (float_bound_exclusive 2.))
  in
  QCheck.Test.make ~name:"resource disciplines conserve work" ~count:150
    (QCheck.make (QCheck.Gen.pair job_gen chain_gen))
    (fun (jobs, (start, k, d)) ->
      (* amounts must be strictly positive *)
      let jobs = List.map (fun (a, d) -> (a, d +. 0.01)) jobs in
      let d = d +. 0.01 in
      let run ~chained =
        let eng = Engine.create () in
        let res = Resource.create eng in
        let completions = ref [] in
        List.iteri
          (fun i (arrival, amount) ->
            Engine.after eng ~delay:arrival (fun () ->
                Resource.use res amount (fun () ->
                    completions :=
                      (i, arrival, amount, Engine.now eng) :: !completions)))
          jobs;
        let chain_done = ref Float.nan in
        let finish () = chain_done := Engine.now eng in
        let rec link left () =
          if left = 0 then finish () else Resource.use res d (link (left - 1))
        in
        Engine.after eng ~delay:start (fun () ->
            if chained then link k ()
            else Resource.use res (float_of_int k *. d) finish);
        Engine.run eng;
        let total =
          List.fold_left (fun acc (_, a) -> acc +. a) (float_of_int k *. d) jobs
        in
        let conserves =
          List.length !completions = List.length jobs
          && List.for_all
               (fun (_, arrival, amount, finish) ->
                 finish >= arrival +. amount -. 1e-6)
               !completions
          && Float.abs (Resource.busy_time res -. total) < 1e-3
        in
        (conserves, List.sort compare !completions, !chain_done)
      in
      let one_ok, one, one_done = run ~chained:false in
      let chain_ok, chain, chain_done = run ~chained:true in
      one_ok && chain_ok
      && List.for_all2
           (fun (i, _, _, f) (j, _, _, g) -> i = j && Float.abs (f -. g) <= 1e-9)
           one chain
      && Float.abs (one_done -. chain_done) <= 1e-9)

(* --- Rng ----------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* The first draws of several streams, recorded with SplitMix64 over a
   boxed [int64] state: any representation of the state must reproduce
   them bit for bit. Per seed: [bits64], [float],
   [uniform ~lo:1 ~hi:1000], [exponential ~mean:2.5], then a [split] child's
   [bits64] and [float], then the parent's next [bits64]. *)
let rng_pins =
  [
    ( 0, -2152535657050944081L, 0x1.b9e279aa86e58p-2, 27, 0x1.1ae96e49f6eabp+3,
      5085904676777434204L, 0x1.d105e8c6576d7p-1, 6038094601263162090L );
    ( 1, -4616330145664149646L, 0x1.7d54b3920bcaap-2, 439, 0x1.ed109089ba508p+2,
      -1147685784756221562L, 0x1.dcfca502244acp-1, -7456765501708208026L );
    ( 42, -7450291807549245335L, 0x1.486da5f92b86cp-3, 167, 0x1.f7fc4e32d682ap-4,
      -6585662623018088301L, 0x1.bcc58e6f66602p-2, 4337243929683858115L );
    ( 20060912, -8438310450864721064L, 0x1.3d61cfda0fd3dp-1, 531,
      0x1.9c5d65986c04fp+1, -2980118226102960936L, 0x1.02c5a62cb59b1p-1,
      5063207154285650703L );
    ( -7, -6657567321482388864L, 0x1.17e4fe55fbc3cp-3, 855, 0x1.3390534a83d95p+0,
      8240285101112274550L, 0x1.cf56e2478a426p-1, 5012559561407119599L );
    ( max_int, 3306431589464170407L, 0x1.5ed32218226f3p-1, 759,
      0x1.eeb11b7e0b24dp+1, -266440130637300729L, 0x1.d1bce3ae7b207p-1,
      -8842186889883973147L );
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun (seed, bits, f, u, e, child_bits, child_f, next_bits) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let exact = Alcotest.(check (float 0.)) in
      let r = Rng.create seed in
      Alcotest.(check int64) (name "bits64") bits (Rng.bits64 r);
      exact (name "float") f (Rng.float r);
      check_int (name "uniform") u (Rng.uniform r ~lo:1 ~hi:1000);
      exact (name "exponential") e (Rng.exponential r ~mean:2.5);
      let child = Rng.split r in
      Alcotest.(check int64) (name "split child bits64") child_bits (Rng.bits64 child);
      exact (name "split child float") child_f (Rng.float child);
      Alcotest.(check int64) (name "parent after split") next_bits (Rng.bits64 r))
    rng_pins

(* [skip t n] lands where [n] [bits64] calls land, [n = 0] included, and a
   [copy] taken first draws the skipped outputs while [t] moves on. *)
let prop_rng_skip =
  QCheck.Test.make ~name:"skip n is n bits64 draws" ~count:500
    QCheck.(pair int (oneof [ always 0; int_range 0 2000 ]))
    (fun (seed, n) ->
      let a = Rng.create seed and b = Rng.create seed in
      let drawn = List.init n (fun _ -> Rng.bits64 a) in
      let c = Rng.copy b in
      Rng.skip b n;
      let next = Rng.bits64 b in
      next = Rng.bits64 a && List.for_all (fun x -> x = Rng.bits64 c) drawn
      && Rng.bits64 c = next)

(* A bank parks streams, not their draws: [k] streams saved into one bank
   and loaded back in a random interleaving draw exactly what [k] unbanked
   streams draw. Step [(j, d)] loads stream [j] if it is parked (several
   can be out at once) or else draws [d] outputs from it and saves it
   back; at the end every stream is saved and loaded once more. *)
let prop_rng_bank =
  QCheck.Test.make ~name:"banked streams draw what unbanked ones draw"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair int
           ( int_range 1 8 >>= fun k ->
             pair (return k) (small_list (pair (int_bound (k - 1)) (int_bound 5)))
           )))
    (fun (seed, (k, steps)) ->
      let root = Rng.create seed in
      let plain = Array.init k (fun _ -> Rng.split root) in
      let bank = Bytes.create (8 * k) in
      Array.iteri (fun j r -> Rng.save (Rng.copy r) bank j) plain;
      let out = Array.make k None in
      let draw j r d =
        List.for_all (fun _ -> Rng.bits64 r = Rng.bits64 plain.(j)) (List.init d Fun.id)
      in
      let ok =
        List.for_all
          (fun (j, d) ->
            match out.(j) with
            | None ->
              out.(j) <- Some (Rng.load bank j);
              true
            | Some r ->
              out.(j) <- None;
              let same = draw j r d in
              Rng.save r bank j;
              same)
          steps
      in
      Array.iteri (fun j r -> Option.iter (fun r -> Rng.save r bank j) r) out;
      ok && List.for_all (fun j -> draw j (Rng.load bank j) 3) (List.init k Fun.id))

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Rng.bits64 b) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_uniform_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:5 ~hi:15 in
    check_bool "within bounds" true (x >= 5 && x <= 15)
  done

let test_rng_uniform_bad_range () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.uniform: lo > hi")
    (fun () -> ignore (Rng.uniform rng ~lo:2 ~hi:1))

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:7.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "sample mean near 7"
    true
    (Float.abs (mean -. 7.) < 0.25)

let test_rng_exponential_bad_mean () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "non-positive mean"
    (Invalid_argument "Rng.exponential: mean must be positive") (fun () ->
      ignore (Rng.exponential rng ~mean:0.))

let test_rng_bernoulli_frequency () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.2 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check_bool "frequency near 0.2" true (Float.abs (freq -. 0.2) < 0.02)

let test_rng_zipf_range_and_skew () =
  let rng = Rng.create 23 in
  let n = 1000 in
  let draws s = List.init 5000 (fun _ -> Rng.zipf rng ~n ~s) in
  let head_freq xs =
    float_of_int (List.length (List.filter (fun x -> x <= 10) xs))
    /. float_of_int (List.length xs)
  in
  let flat = draws 0. in
  check_bool "all in range" true (List.for_all (fun x -> x >= 1 && x <= n) flat);
  let f0 = head_freq flat in
  let f09 = head_freq (draws 0.9) in
  let f14 = head_freq (draws 1.4) in
  check_bool "uniform hits head ~1%" true (f0 < 0.03);
  check_bool "skew concentrates on head" true (f09 > 5. *. f0);
  check_bool "more skew, more concentration" true (f14 > f09)

let test_rng_zipf_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n < 1" (Invalid_argument "Rng.zipf: n < 1") (fun () ->
      ignore (Rng.zipf rng ~n:0 ~s:1.));
  Alcotest.check_raises "s < 0" (Invalid_argument "Rng.zipf: s < 0") (fun () ->
      ignore (Rng.zipf rng ~n:5 ~s:(-1.)))

let test_rng_float_range () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

(* --- Stat ---------------------------------------------------------------------- *)

let test_stat_basic () =
  let s = Stat.create () in
  List.iter (Stat.record s) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Stat.count s);
  check_float "mean" 2.5 (Stat.mean s);
  Alcotest.(check (float 1e-9)) "variance" (5. /. 3.) (Stat.stddev s ** 2.);
  check_float "total" 10. (Stat.total s)

let test_stat_empty () =
  let s = Stat.create () in
  check_float "empty mean" 0. (Stat.mean s);
  check_float "empty variance" 0. (Stat.stddev s ** 2.)

let prop_stat_mean_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stat.create () in
      List.iter (Stat.record s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stat.mean s -. naive) < 1e-6 *. (1. +. Float.abs naive))

(* Budgeted-ops guard: the event heap must stay O(log n) per operation
   under a large randomized load. 200k events is bench-scale; the 10s
   budget is generous enough to never flake while catching any O(n) sift
   regression. *)
let test_engine_heap_budget () =
  let eng = Engine.create () in
  let rng = Rng.create 0xBEEF in
  let fired = ref 0 in
  for _ = 1 to 200_000 do
    Engine.after eng ~delay:(1000. *. Rng.float rng) (fun () -> incr fired)
  done;
  let t0 = Sys.time () in
  Engine.run eng;
  let elapsed = Sys.time () -. t0 in
  check_int "every event fired" 200_000 !fired;
  check_int "events_processed counts firings" 200_000
    (Engine.events_processed eng);
  check_bool
    (Printf.sprintf "200k-event heap drained in %.2fs cpu (budget 10s)" elapsed)
    true (elapsed < 10.)

(* Footprint guard: a pending timer is its queue slot plus its action's
   closure, with no event record and no boxed time. 100k pending timers,
   each a closure of two values as a continuation typically is, grow the
   engine's reachable heap by about 8.9 words each: 5 for the closure, 3
   for the slot and the rest for the arrays' doubling slack. The clock is
   boxed when an event fires, so reading it allocates nothing. *)
let test_engine_timer_footprint () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let body i = fired := !fired + i in
  let timers = 100_000 in
  let before = Obj.reachable_words (Obj.repr eng) in
  for i = 1 to timers do
    Engine.after eng ~delay:(float_of_int i) (fun () -> body i)
  done;
  let per_timer =
    float_of_int (Obj.reachable_words (Obj.repr eng) - before)
    /. float_of_int timers
  in
  check_bool
    (Printf.sprintf "%.2f words per pending timer (bound 10)" per_timer)
    true (per_timer < 10.);
  let words = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Engine.now eng))
  done;
  Alcotest.(check (float 0.)) "Engine.now allocates nothing" 0.
    (Gc.minor_words () -. words);
  Engine.run eng;
  check_int "every timer fired" (timers * (timers + 1) / 2) !fired

(* Footprint guard for argument timers: 100k pending [after_arg] events
   that share one action cost their slot alone, four words (time, seq,
   action, argument) and the arrays' doubling slack, about 5.2 words each.
   This is what a thinking closed-loop client costs the engine. *)
let test_engine_arg_timer_footprint () =
  let eng = Engine.create () in
  let sum = ref 0 in
  let action () = sum := !sum + Engine.arg eng in
  let timers = 100_000 in
  let before = Obj.reachable_words (Obj.repr eng) in
  for i = 1 to timers do
    Engine.after_arg eng ~delay:(float_of_int i) ~arg:i action
  done;
  let per_timer =
    float_of_int (Obj.reachable_words (Obj.repr eng) - before)
    /. float_of_int timers
  in
  check_bool
    (Printf.sprintf "%.2f words per pending argument timer (bound 6)" per_timer)
    true (per_timer < 6.);
  Engine.run eng;
  check_int "each action read its own argument" (timers * (timers + 1) / 2) !sum

(* Footprint guard for parked rows: a waiter of [Seqcond.wait] is four
   flat slots (need, order, argument, action) and nothing else, when its
   waiters share one action. [n] rows fill the queue's doubled columns
   exactly, so its reachable words grow by 4 per row plus a header per
   column, less the one-word empty array the four columns of an empty
   queue share; the marginal words from [n] to [2n] rows are exactly 4 per
   row.
   At a filled capacity registering and releasing allocate nothing: firing
   the released waiters costs what firing as many plain argument events
   does. *)
let test_seqcond_row_footprint () =
  let eng = Engine.create () in
  let sum = ref 0 in
  let action () = sum := !sum + Engine.arg eng in
  let filled n =
    let sc = Seqcond.create eng in
    let empty = Obj.reachable_words (Obj.repr (sc, action)) in
    for i = 1 to n do
      Seqcond.wait sc ~need:(i mod 7) ~arg:i action
    done;
    (sc, Obj.reachable_words (Obj.repr (sc, action)) - empty)
  in
  let n = 1024 in
  let sc, words = filled n in
  let _, words2 = filled (2 * n) in
  check_int "4 words a row and a header a column" ((4 * n) + 4 - 1) words;
  check_int "marginal words per row" 4 ((words2 - words) / n);
  check_int "exact marginal" 0 ((words2 - words) mod n);
  (* Release the filled queue once, so the engine's columns reach [n] as
     well, then refill and release it measured. *)
  Seqcond.advance sc 7;
  Engine.run eng;
  let fire_words () =
    let before = Gc.minor_words () in
    Engine.run eng;
    Gc.minor_words () -. before
  in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Seqcond.wait sc ~need:(8 + (i mod 7)) ~arg:i action
  done;
  Seqcond.advance sc 15;
  Alcotest.(check (float 0.)) "wait and advance allocate nothing" 0.
    (Gc.minor_words () -. before);
  let fired = Engine.events_processed eng in
  let released = fire_words () in
  check_int "every row released" n (Engine.events_processed eng - fired);
  for i = 1 to n do
    Engine.after_arg eng ~delay:0. ~arg:i action
  done;
  Alcotest.(check (float 0.)) "firing costs the engine's own events"
    (fire_words ()) released;
  check_int "each action read its own argument" (3 * n * (n + 1) / 2) !sum

(* --- Suite ----------------------------------------------------------------------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lsr_sim"
    [
      ( "binheap",
        [
          Alcotest.test_case "push/pop sorted" `Quick test_binheap_basic;
          Alcotest.test_case "pop empty raises" `Quick test_binheap_pop_empty;
          Alcotest.test_case "pop releases elements" `Quick
            test_binheap_pop_releases;
        ]
        @ qsuite [ prop_binheap_sorts ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo tie-break" `Quick test_engine_fifo_ties;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "until exact boundary" `Quick
            test_engine_until_exact_boundary;
          Alcotest.test_case "until + cancel interaction" `Quick
            test_engine_until_cancel_interaction;
          Alcotest.test_case "fifo ties with cancel and until" `Quick
            test_engine_fifo_ties_with_cancel_and_until;
          Alcotest.test_case "every rejects a zero period" `Quick
            test_engine_every_rejects_zero_period;
          Alcotest.test_case "pending timer footprint" `Quick
            test_engine_timer_footprint;
          Alcotest.test_case "argument timer footprint" `Quick
            test_engine_arg_timer_footprint;
          Alcotest.test_case "parked row footprint" `Quick
            test_seqcond_row_footprint;
          Alcotest.test_case "200k-event heap budget" `Slow
            test_engine_heap_budget;
        ]
        @ qsuite [ prop_engine_matches_model; prop_engine_matches_model_deep ] );
      ( "process",
        [
          Alcotest.test_case "delay" `Quick test_process_delay;
          Alcotest.test_case "spawn within process" `Quick
            test_process_spawn_within_process;
        ] );
      ( "seqcond",
        [
          Alcotest.test_case "threshold order" `Quick test_seqcond_threshold_order;
          Alcotest.test_case "rising threshold" `Quick
            test_seqcond_rising_threshold;
          Alcotest.test_case "immediate pass" `Quick test_seqcond_immediate;
          Alcotest.test_case "matches a polling process" `Quick
            test_seqcond_matches_polling;
        ] );
      ( "resource",
        [
          Alcotest.test_case "ps equal share" `Quick test_resource_ps_equal_share;
          Alcotest.test_case "ps late arrival" `Quick test_resource_ps_late_arrival;
          Alcotest.test_case "round robin slices" `Quick test_resource_round_robin;
          Alcotest.test_case "rr approximates ps" `Quick
            test_resource_rr_approximates_ps;
          Alcotest.test_case "zero amount" `Quick test_resource_zero_amount;
          Alcotest.test_case "superseded completions" `Quick
            test_resource_superseded_completions;
          Alcotest.test_case "use price" `Quick test_resource_use_price;
          Alcotest.test_case "load" `Quick test_resource_load;
          Alcotest.test_case "busy time mid-service" `Quick
            test_resource_busy_midservice;
          Alcotest.test_case "ps load no overshoot" `Quick
            test_resource_ps_load_no_overshoot;
          Alcotest.test_case "telemetry counts" `Quick
            test_resource_telemetry_counts;
        ]
        @ qsuite [ prop_resource_work_conservation; prop_resource_littles_law ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "uniform bad range" `Quick test_rng_uniform_bad_range;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential bad mean" `Quick
            test_rng_exponential_bad_mean;
          Alcotest.test_case "bernoulli frequency" `Quick
            test_rng_bernoulli_frequency;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "zipf range/skew" `Quick test_rng_zipf_range_and_skew;
          Alcotest.test_case "zipf invalid" `Quick test_rng_zipf_invalid;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
        ]
        @ qsuite [ prop_rng_skip; prop_rng_bank ] );
      ( "stat",
        [
          Alcotest.test_case "basic moments" `Quick test_stat_basic;
          Alcotest.test_case "empty" `Quick test_stat_empty;
        ]
        @ qsuite [ prop_stat_mean_matches_naive ] );
    ]
