open Lsr_storage

type inversion = { earlier : History.txn; later : History.txn }

let pp_inversion ppf { earlier; later } =
  Format.fprintf ppf "%a inverted by %a" History.pp_txn earlier History.pp_txn
    later

(* The definitions quantify over committed transactions only. *)
let committed (t : History.txn) =
  t.kind = History.Read_only || Option.is_some t.commit_ts

(* The database state a committed transaction pins:
   - an update transaction pins the state it produced (its commit ts);
   - a read-only transaction pins the state it observed (its snapshot). *)
let pinned (t : History.txn) =
  match (t.kind, t.commit_ts) with
  | History.Update, Some ts -> ts
  | History.Update, None | History.Read_only, _ -> t.snapshot

(* The committed transactions in completion order: what every sweep sorts. *)
let committed_txns history =
  Array.of_list (List.filter committed (History.transactions history))

(* A stable sort of a copy, so ties keep completion order. *)
let sorted_by key txns =
  let a = Array.copy txns in
  Array.stable_sort (fun x y -> Int.compare (key x) (key y)) a;
  a

module Keys = Hashtbl.Make (String)

(* --- Global weak SI --------------------------------------------------------

   Replays the committed writesets in commit-timestamp order and checks each
   committed transaction's recorded reads, in snapshot order, against the
   replayed state at its snapshot. A key the transaction wrote itself is
   skipped (the history does not order its reads against its own writes):
   each key's slot records the index of the last checked transaction that
   wrote it. *)

type slot = { mutable value : string option; mutable writer : int }

let weak_si_violations txns =
  let by_commit = sorted_by pinned txns in
  let readers = sorted_by (fun (t : History.txn) -> t.snapshot) txns in
  let state = Keys.create 1024 in
  let slot key =
    match Keys.find_opt state key with
    | Some s -> s
    | None ->
      let s = { value = None; writer = -1 } in
      Keys.replace state key s;
      s
  in
  let violations = ref [] in
  let applied = ref 0 in
  Array.iteri
    (fun i (t : History.txn) ->
      while
        !applied < Array.length by_commit
        && Timestamp.compare (pinned by_commit.(!applied)) t.snapshot <= 0
      do
        let u = by_commit.(!applied) in
        if u.kind = History.Update then
          List.iter (fun { Wal.key; value } -> (slot key).value <- value) u.writes;
        incr applied
      done;
      List.iter (fun { Wal.key; _ } -> (slot key).writer <- i) t.writes;
      violations :=
        History.fold_reads t ~init:!violations ~f:(fun violations key observed ->
            match Keys.find_opt state key with
            | Some s when s.writer = i -> violations
            | found ->
              let expected = match found with Some s -> s.value | None -> None in
              if Option.equal String.equal expected observed then violations
              else
                Format.asprintf "%a read %s = %s but state S@%a has %s"
                  History.pp_txn t key
                  (match observed with Some v -> v | None -> "<none>")
                  Timestamp.pp t.snapshot
                  (match expected with Some v -> v | None -> "<none>")
                :: violations))
    readers;
  List.rev !violations

let check_weak_si history = weak_si_violations (committed_txns history)

(* --- The wall-order sweep ---------------------------------------------------

   Walks the committed transactions by first operation. Before judging
   [t2] it notes every [t1] that finished before [t2]'s first operation,
   raising the floors [t1] counts for: the highest state pinned globally,
   per session, and per session by updates only (PCSI does not order
   read-only transactions against each other), each witnessed by the first
   transaction in finish order that pinned it; and the session's fence
   floor (its updates' commits and its [Session_seq]-fenced reads'
   snapshots). [t2] is inverted at a level when its snapshot is below that
   level's floor. A fenced read is audited against its claim; a [Max_age]
   claim without a clock to audit it is itself a violation (recording
   fenced histories without the clock is a harness bug). *)

(* The highest state pinned at one level so far, and its witness. *)
type floor = { mutable ts : Timestamp.t; mutable by : History.txn option }
type session_floors = { any : floor; updates : floor; mutable fence : Timestamp.t }

type report = {
  weak_si_violations : string list;
  inversions_all : inversion list;
  inversions_in_session : inversion list;
  inversions_after_update : inversion list;
  fence_violations : string list;
}

let floor () = { ts = min_int; by = None }

let raise_floor f ts t =
  if Timestamp.compare f.ts ts < 0 then begin
    f.ts <- ts;
    f.by <- Some t
  end

let inverted f (t2 : History.txn) acc =
  match f.by with
  | Some t1 when Timestamp.compare t2.snapshot f.ts < 0 ->
    { earlier = t1; later = t2 } :: acc
  | Some _ | None -> acc

(* Everything but weak SI. *)
let wall_sweep ?clock txns =
  let by_start = sorted_by (fun (t : History.txn) -> t.first_op) txns in
  let by_finish = sorted_by (fun (t : History.txn) -> t.finished) txns in
  let all = floor () in
  let sessions = Keys.create 64 in
  let note (t1 : History.txn) =
    let s =
      match Keys.find_opt sessions t1.session with
      | Some s -> s
      | None ->
        let s = { any = floor (); updates = floor (); fence = min_int } in
        Keys.replace sessions t1.session s;
        s
    in
    let ts = pinned t1 in
    raise_floor all ts t1;
    raise_floor s.any ts t1;
    match (t1.kind, t1.fence) with
    | History.Update, _ ->
      raise_floor s.updates ts t1;
      s.fence <- Timestamp.max s.fence ts
    | History.Read_only, Some { History.claim = Session.Session_seq; _ } ->
      s.fence <- Timestamp.max s.fence ts
    | History.Read_only, _ -> ()
  in
  let fences = ref [] in
  let violation t2 fmt =
    Format.kasprintf
      (fun msg ->
        fences :=
          Format.asprintf "%a: fence violated: %s" History.pp_txn t2 msg
          :: !fences)
      fmt
  in
  let audit (t2 : History.txn) session_floor =
    match (t2.kind, t2.fence) with
    | History.Update, _ | _, None -> ()
    | History.Read_only, Some { History.claim; read_at } -> (
      match claim with
      | Session.Exact ts ->
        if Timestamp.compare t2.snapshot ts < 0 then
          violation t2 "snapshot %a < exact fence %a" Timestamp.pp t2.snapshot
            Timestamp.pp ts
      | Session.Session_seq ->
        if Timestamp.compare t2.snapshot session_floor < 0 then
          violation t2 "snapshot %a < session fence floor %a" Timestamp.pp
            t2.snapshot Timestamp.pp session_floor
      | Session.Max_age d -> (
        match clock with
        | None ->
          violation t2 "Max_age %g claim but no commit clock to audit it" d
        | Some c ->
          let horizon = Session.clock_horizon c ~cutoff:(read_at -. d) in
          if Timestamp.compare t2.snapshot horizon < 0 then
            violation t2
              "snapshot %a < visibility horizon %a (age %g at read time %g)"
              Timestamp.pp t2.snapshot Timestamp.pp horizon d read_at))
  in
  let inv_all = ref [] and inv_session = ref [] and inv_session_updates = ref [] in
  let noted = ref 0 in
  Array.iter
    (fun (t2 : History.txn) ->
      while
        !noted < Array.length by_finish
        && by_finish.(!noted).finished < t2.first_op
      do
        note by_finish.(!noted);
        incr noted
      done;
      inv_all := inverted all t2 !inv_all;
      match Keys.find_opt sessions t2.session with
      | Some s ->
        inv_session := inverted s.any t2 !inv_session;
        inv_session_updates := inverted s.updates t2 !inv_session_updates;
        audit t2 s.fence
      | None -> audit t2 min_int)
    by_start;
  {
    weak_si_violations = [];
    inversions_all = List.rev !inv_all;
    inversions_in_session = List.rev !inv_session;
    inversions_after_update = List.rev !inv_session_updates;
    fence_violations = List.rev !fences;
  }

(* --- States ----------------------------------------------------------------

   States are compared key by key, never materialized: two states are equal
   exactly when they hold the same number of visible bindings and every
   binding of one reads the same value from the other. *)

let visible_count db ~at = Mvcc.fold_visible db ~at ~init:0 ~f:(fun n _ _ -> n + 1)

let same_state expected ~at actual =
  let actual_at = Mvcc.latest_commit_ts actual in
  let n = visible_count actual ~at:actual_at in
  n = visible_count expected ~at
  && n
     = Mvcc.fold_visible actual ~at:actual_at ~init:0 ~f:(fun matched key v ->
           match Mvcc.read_at expected at key with
           | Some v' when String.equal v v' -> matched + 1
           | Some _ | None -> matched)

let analyze ?clock history =
  let txns = committed_txns history in
  let weak_si_violations = weak_si_violations txns in
  { (wall_sweep ?clock txns) with weak_si_violations }

let forbidden_inversions guarantee report =
  match Session.forbidden_level guarantee with
  | None -> []
  | Some Session.All_sessions -> report.inversions_all
  | Some Session.In_session -> report.inversions_in_session
  | Some Session.After_update -> report.inversions_after_update

let satisfies guarantee report =
  report.weak_si_violations = []
  && report.fence_violations = []
  && forbidden_inversions guarantee report = []
