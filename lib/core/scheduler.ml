open Lsr_sim

type site = {
  index : int;
  (* seq(DBsec) again, advanced after the commit hook has run, so the
     readers a commit releases run first *)
  commit_order : Seqcond.t;
  mutable idle : bool;  (* asleep on an empty update queue *)
}

type t = {
  rs : Replica_set.t;
  eng : Engine.t;
  serve : int -> ops:int -> (unit -> unit) -> unit;
  wasted : int -> unit;
  serial : bool;
  sites : site array;
}

let create ?(wasted = ignore) ~serial_refresh ~serve eng rs =
  let site index =
    let commit_order = Seqcond.create eng in
    Seqcond.advance commit_order
      (Secondary.seq_dbsec (Replica_set.secondary rs index));
    { index; commit_order; idle = true }
  in
  { rs; eng; serve; wasted; serial = serial_refresh;
    sites = Array.init (Replica_set.sites rs) site }

(* The site's current replica, read through [rs] at each use. *)
let secondary t s = Replica_set.secondary t.rs s.index

(* The pending queue's head commits once seq(DBsec) has reached [after],
   the tail it joined; then [k ()]. *)
let rec commit t s ~after k =
  if Secondary.seq_dbsec (secondary t s) < after then
    Seqcond.park s.commit_order ~need:after (fun () -> commit t s ~after k)
  else
    match Replica_set.fire t.rs (Replica_set.Commit s.index) with
    | Replica_set.Committed ts ->
      Seqcond.advance s.commit_order ts;
      k ()
    | _ -> assert false (* the head of a non-empty pending queue commits *)

(* The applicator of a refresh just dispatched: served, then committed. *)
let apply t s ~ops ~after k =
  t.serve s.index ~ops (fun () -> commit t s ~after k)

let refresher t s () =
  let refresh = Replica_set.Refresh s.index in
  let rec loop () =
    let after = Secondary.pending_tail (secondary t s) in
    match Replica_set.fire t.rs refresh with
    | Replica_set.Started -> loop ()
    | Replica_set.Aborted ops ->
      t.serve s.index ~ops (fun () ->
          t.wasted ops;
          loop ())
    | Replica_set.Dispatched ops ->
      if t.serial then apply t s ~ops ~after loop
      else begin
        Engine.after t.eng ~delay:0. (fun () -> apply t s ~ops ~after ignore);
        loop ()
      end
    | _ when Secondary.update_queue_length (secondary t s) = 0 -> s.idle <- true
    | _ ->
      (* Blocked on a start record until the pending tail has committed;
         only this refresher dispatches, so the tail holds meanwhile. *)
      Seqcond.park s.commit_order
        ~need:(Secondary.pending_tail (secondary t s))
        loop
  in
  loop ()

let wake t s =
  if s.idle then begin
    s.idle <- false;
    Engine.after t.eng ~delay:0. (refresher t s)
  end

let start t = Array.iter (wake t) t.sites

let deliver t i () =
  match Replica_set.fire t.rs (Replica_set.Deliver i) with
  | Replica_set.Shipped _ -> wake t t.sites.(i)
  | _ -> ()

let propagate ?deliver t =
  match Replica_set.fire t.rs Replica_set.Poll with
  | Replica_set.Shipped n ->
    if not (Replica_set.faulty t.rs) then
      for i = 0 to Array.length t.sites - 1 do
        match deliver with
        | Some deliver -> deliver i
        | None -> ignore (Replica_set.fire t.rs (Replica_set.Deliver i))
      done;
    n
  | _ -> 0

let refresh t i =
  let s = t.sites.(i) in
  Seqcond.advance s.commit_order (Secondary.seq_dbsec (secondary t s));
  deliver t i ();
  (* Every drain ends with nothing armed, so the pending queue holds only
     refreshes dispatched from outside since, in order. *)
  for _ = 1 to Secondary.pending_queue_length (secondary t s) do
    commit t s ~after:min_int ignore
  done;
  wake t s
