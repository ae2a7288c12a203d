module Rng = Lsr_sim.Rng

type config = {
  loss : float;
  dup : float;
  delay : float;
  max_delay : int;
  reorder : float;
  reorder_window : int;
  ack_loss : float;
  rto : int;
  backoff : float;
  max_rto : int;
}

let reliable =
  {
    loss = 0.;
    dup = 0.;
    delay = 0.;
    max_delay = 0;
    reorder = 0.;
    reorder_window = 0;
    ack_loss = 0.;
    rto = 4;
    backoff = 2.;
    max_rto = 64;
  }

let default =
  {
    reliable with
    loss = 0.05;
    dup = 0.05;
    delay = 0.1;
    max_delay = 3;
    reorder = 0.1;
    reorder_window = 2;
    ack_loss = 0.05;
  }

let chaos =
  {
    loss = 0.25;
    dup = 0.2;
    delay = 0.3;
    max_delay = 6;
    reorder = 0.3;
    reorder_window = 4;
    ack_loss = 0.25;
    rto = 3;
    backoff = 2.;
    max_rto = 32;
  }

let validate cfg =
  let prob name p ~strict =
    if p < 0. || p > 1. || (strict && p >= 1.) then
      invalid_arg (Printf.sprintf "Channel.create: %s out of range" name)
  in
  prob "loss" cfg.loss ~strict:true;
  prob "dup" cfg.dup ~strict:false;
  prob "delay" cfg.delay ~strict:false;
  prob "reorder" cfg.reorder ~strict:false;
  prob "ack_loss" cfg.ack_loss ~strict:true;
  if cfg.max_delay < 0 || cfg.reorder_window < 0 then
    invalid_arg "Channel.create: negative window";
  if cfg.rto < 1 then invalid_arg "Channel.create: rto must be >= 1";
  if cfg.backoff < 1. then invalid_arg "Channel.create: backoff must be >= 1.";
  if cfg.max_rto < cfg.rto then invalid_arg "Channel.create: max_rto < rto"

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;
  mutable retransmitted : int;
  mutable acks_dropped : int;
  mutable stale_ignored : int;
  mutable max_flight : int;
  mutable max_ooo : int;
}

let zero () =
  {
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    reordered = 0;
    retransmitted = 0;
    acks_dropped = 0;
    stale_ignored = 0;
    max_flight = 0;
    max_ooo = 0;
  }

let zero_stats = zero ()

let add_stats a b =
  {
    sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    duplicated = a.duplicated + b.duplicated;
    delayed = a.delayed + b.delayed;
    reordered = a.reordered + b.reordered;
    retransmitted = a.retransmitted + b.retransmitted;
    acks_dropped = a.acks_dropped + b.acks_dropped;
    stale_ignored = a.stale_ignored + b.stale_ignored;
    max_flight = max a.max_flight b.max_flight;
    max_ooo = max a.max_ooo b.max_ooo;
  }

type message = { seq : int; record : Lsr_storage.Wal.entry }

(* One copy of a message traversing the network. *)
type packet = { arrive : int; pseq : int; precord : Lsr_storage.Wal.entry }

(* Sender-side retransmission state for one unacked message. *)
type unacked_msg = { msg : message; mutable rto_at : int; mutable cur_rto : int }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable clock : int;
  (* Sender. *)
  mutable next_seq : int;
  pending : unacked_msg Queue.t; (* in seq order, oldest first *)
  (* Network. *)
  mutable flight : packet list;
  mutable ack_flight : (int * int) list; (* arrival tick, cumulative ack *)
  (* Receiver. *)
  mutable next_expected : int;
  ooo : (int, Lsr_storage.Wal.entry) Hashtbl.t;
  s : stats;
  sinks : Lsr_obs.Sinks.t;
  lname : string option; (* site this channel feeds, for flight events *)
}

let create ?(config = default) ?(sinks = Lsr_obs.Sinks.null) ?name ~rng () =
  validate config;
  {
    cfg = config;
    rng;
    clock = 0;
    next_seq = 0;
    pending = Queue.create ();
    flight = [];
    ack_flight = [];
    next_expected = 0;
    ooo = Hashtbl.create 32;
    s = zero ();
    sinks;
    lname = name;
  }

let emit_stage t record stage =
  if Lsr_obs.Sinks.tracing t.sinks then
    Lsr_obs.Sinks.stage t.sinks ?site:t.lname
      ~txn:(Lsr_storage.Wal.txn record)
      (stage (Lsr_storage.Wal.kind_name record))

let stats t = t.s

let idle t =
  Queue.is_empty t.pending && t.flight = [] && t.ack_flight = []
  && Hashtbl.length t.ooo = 0

(* Put one copy of [msg] on the wire, applying the configured faults. *)
let transmit t msg =
  if t.cfg.loss > 0. && Rng.bernoulli t.rng ~p:t.cfg.loss then begin
    t.s.dropped <- t.s.dropped + 1;
    emit_stage t msg.record (fun record ->
        Lsr_obs.Flight.Channel_dropped { record })
  end
  else begin
    let latency = ref 1 in
    if t.cfg.delay > 0. && Rng.bernoulli t.rng ~p:t.cfg.delay then begin
      let extra = Rng.uniform t.rng ~lo:1 ~hi:(max 1 t.cfg.max_delay) in
      latency := !latency + extra;
      t.s.delayed <- t.s.delayed + 1;
      emit_stage t msg.record (fun record ->
          Lsr_obs.Flight.Channel_delayed { record; ticks = extra })
    end;
    if t.cfg.reorder > 0. && Rng.bernoulli t.rng ~p:t.cfg.reorder then begin
      latency :=
        !latency + Rng.uniform t.rng ~lo:1 ~hi:(max 1 t.cfg.reorder_window);
      t.s.reordered <- t.s.reordered + 1
    end;
    t.flight <-
      { arrive = t.clock + !latency; pseq = msg.seq; precord = msg.record }
      :: t.flight;
    if t.cfg.dup > 0. && Rng.bernoulli t.rng ~p:t.cfg.dup then begin
      let extra = 1 + Rng.uniform t.rng ~lo:0 ~hi:(max 1 t.cfg.reorder_window) in
      t.flight <-
        { arrive = t.clock + extra; pseq = msg.seq; precord = msg.record }
        :: t.flight;
      t.s.duplicated <- t.s.duplicated + 1;
      emit_stage t msg.record (fun record ->
          Lsr_obs.Flight.Channel_duplicated { record })
    end;
    let depth = List.length t.flight in
    if depth > t.s.max_flight then t.s.max_flight <- depth
  end

let send t records =
  List.iter
    (fun record ->
      let msg = { seq = t.next_seq; record } in
      t.next_seq <- t.next_seq + 1;
      Queue.add
        { msg; rto_at = t.clock + t.cfg.rto; cur_rto = t.cfg.rto }
        t.pending;
      t.s.sent <- t.s.sent + 1;
      transmit t msg)
    records

let tick t =
  t.clock <- t.clock + 1;
  (* Data arrivals, in a deterministic order. *)
  let arrived, still = List.partition (fun p -> p.arrive <= t.clock) t.flight in
  t.flight <- still;
  let arrived =
    List.sort
      (fun a b -> compare (a.arrive, a.pseq) (b.arrive, b.pseq))
      arrived
  in
  List.iter
    (fun p ->
      if p.pseq < t.next_expected then
        t.s.stale_ignored <- t.s.stale_ignored + 1
      else Hashtbl.replace t.ooo p.pseq p.precord)
    arrived;
  (* Deliver the in-sequence prefix. *)
  let delivered = ref [] in
  let advancing = ref true in
  while !advancing do
    match Hashtbl.find_opt t.ooo t.next_expected with
    | Some record ->
      Hashtbl.remove t.ooo t.next_expected;
      delivered := record :: !delivered;
      t.next_expected <- t.next_expected + 1
    | None -> advancing := false
  done;
  let depth = Hashtbl.length t.ooo in
  if depth > t.s.max_ooo then t.s.max_ooo <- depth;
  (* The receiver acks (cumulatively) whenever data arrives — including stale
     duplicates, which is what lets a lost ack be repaired by the
     retransmission it provokes. *)
  if arrived <> [] then begin
    if t.cfg.ack_loss > 0. && Rng.bernoulli t.rng ~p:t.cfg.ack_loss then
      t.s.acks_dropped <- t.s.acks_dropped + 1
    else t.ack_flight <- (t.clock + 1, t.next_expected) :: t.ack_flight
  end;
  (* Sender: absorb arrived acks, release acked messages. *)
  let acks, still_acks =
    List.partition (fun (at, _) -> at <= t.clock) t.ack_flight
  in
  t.ack_flight <- still_acks;
  let cum = List.fold_left (fun acc (_, v) -> max acc v) (-1) acks in
  let released = ref false in
  while
    (not (Queue.is_empty t.pending)) && (Queue.peek t.pending).msg.seq < cum
  do
    ignore (Queue.pop t.pending);
    released := true
  done;
  (* Progress: restart the timers of whatever is still outstanding. *)
  if !released then
    Queue.iter
      (fun u ->
        u.cur_rto <- t.cfg.rto;
        u.rto_at <- t.clock + u.cur_rto)
      t.pending;
  (* Retransmit timed-out messages with exponential backoff. *)
  Queue.iter
    (fun u ->
      if u.rto_at <= t.clock then begin
        t.s.retransmitted <- t.s.retransmitted + 1;
        emit_stage t u.msg.record (fun record ->
            Lsr_obs.Flight.Channel_retransmitted { record });
        transmit t u.msg;
        u.cur_rto <-
          min t.cfg.max_rto
            (max (u.cur_rto + 1)
               (int_of_float (float_of_int u.cur_rto *. t.cfg.backoff)));
        u.rto_at <- t.clock + u.cur_rto
      end)
    t.pending;
  let out = List.rev !delivered in
  t.s.delivered <- t.s.delivered + List.length out;
  out

let reset t =
  t.next_seq <- 0;
  Queue.clear t.pending;
  t.flight <- [];
  t.ack_flight <- [];
  t.next_expected <- 0;
  Hashtbl.reset t.ooo
