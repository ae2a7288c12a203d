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
      List.iter
        (fun (key, observed) ->
          match Keys.find_opt state key with
          | Some s when s.writer = i -> ()
          | found ->
            let expected = match found with Some s -> s.value | None -> None in
            if not (Option.equal String.equal expected observed) then
              violations :=
                Format.asprintf "%a read %s = %s but state S@%a has %s"
                  History.pp_txn t key
                  (match observed with Some v -> v | None -> "<none>")
                  Timestamp.pp t.snapshot
                  (match expected with Some v -> v | None -> "<none>")
                :: !violations)
        t.reads)
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

(* Everything but weak SI. [all_updates_only] restricts the global floor
   to updates, for [inversions ~earlier_updates_only:true] across sessions. *)
let wall_sweep ?clock ?(all_updates_only = false) txns =
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
    if not (all_updates_only && t1.kind = History.Read_only) then
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

let inversions ?(same_session_only = false) ?(earlier_updates_only = false)
    history =
  let r =
    wall_sweep ~all_updates_only:earlier_updates_only (committed_txns history)
  in
  match (same_session_only, earlier_updates_only) with
  | false, _ -> r.inversions_all
  | true, false -> r.inversions_in_session
  | true, true -> r.inversions_after_update

let is_strong_si history = inversions history = []

let is_strong_session_si history =
  inversions ~same_session_only:true history = []

let check_fences ?clock history =
  (wall_sweep ?clock (committed_txns history)).fence_violations

(* --- Serializability via the multi-version serialization graph -------------

   Polynomial-time black-box construction in the style of Huang et al.'s
   "Efficient Black-box Checking of Snapshot Isolation": under SI every read
   is pinned to the version visible at the reader's snapshot, so the wr
   (visible writer -> reader) and rw (reader -> next writer) edges of the
   MVSG are determined directly by binary search over each key's committed
   writer chain — no search over candidate serialization orders. Total cost
   is O(E + R log V) for E edges, R recorded reads and V versions, and the
   cycle check is one iterative DFS (explicit stack; histories with millions
   of transactions must not overflow the OCaml call stack). *)

let serialization_cycle history =
  let txns = committed_txns history in
  let n = Array.length txns in
  (* Version chains: for each key, its committed writers sorted by commit
     timestamp, as arrays supporting binary search. *)
  let writers : (string, (Timestamp.t * int) list) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (t : History.txn) ->
      match t.commit_ts with
      | None -> ()
      | Some cts ->
        List.iter
          (fun { Wal.key; _ } ->
            let chain = Option.value ~default:[] (Hashtbl.find_opt writers key) in
            Hashtbl.replace writers key ((cts, t.id) :: chain))
          t.writes)
    txns;
  let chains : (string, (Timestamp.t * int) array) Hashtbl.t =
    Hashtbl.create (Hashtbl.length writers)
  in
  Hashtbl.iter
    (fun key chain ->
      let arr = Array.of_list chain in
      Array.sort (fun (a, _) (b, _) -> Timestamp.compare a b) arr;
      Hashtbl.replace chains key arr)
    writers;
  (* [partition chain ts] is the number of writers with commit ts <= [ts]:
     the visible version is at index [partition - 1], the next version at
     [partition]. *)
  let partition chain ts =
    let lo = ref 0 and hi = ref (Array.length chain) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let cts, _ = chain.(mid) in
      if Timestamp.compare cts ts <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* Adjacency lists with O(1) dedup. *)
  let succs : (int, int list ref) Hashtbl.t = Hashtbl.create (max 64 n) in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create (max 64 n) in
  let add_edge a b =
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.replace seen (a, b) ();
      match Hashtbl.find_opt succs a with
      | Some l -> l := b :: !l
      | None -> Hashtbl.replace succs a (ref [ b ])
    end
  in
  (* ww: consecutive writers of each key. *)
  Hashtbl.iter
    (fun _ chain ->
      for i = 0 to Array.length chain - 2 do
        add_edge (snd chain.(i)) (snd chain.(i + 1))
      done)
    chains;
  (* wr and rw: for each recorded read, the version visible at the reader's
     snapshot and the next version after it, by binary search. *)
  let own_keys = Hashtbl.create 16 in
  Array.iter
    (fun (t : History.txn) ->
      Hashtbl.reset own_keys;
      List.iter (fun { Wal.key; _ } -> Hashtbl.replace own_keys key ()) t.writes;
      List.iter
        (fun (key, _) ->
          if not (Hashtbl.mem own_keys key) then
            match Hashtbl.find_opt chains key with
            | None -> ()
            | Some chain ->
              let pos = partition chain t.snapshot in
              if pos > 0 then add_edge (snd chain.(pos - 1)) t.id;
              if pos < Array.length chain then add_edge t.id (snd chain.(pos)))
        t.reads)
    txns;
  (* Iterative DFS cycle detection with path reconstruction: the gray path
     is exactly the frame stack, so on hitting an active node the witness
     cycle is the stack suffix from that node. *)
  let color : (int, [ `Active | `Done ]) Hashtbl.t = Hashtbl.create (max 64 n) in
  let no_succs = [||] in
  let succ_array id =
    match Hashtbl.find_opt succs id with
    | Some l -> Array.of_list (List.rev !l)
    | None -> no_succs
  in
  let exception Found of int list in
  let visit root =
    if not (Hashtbl.mem color root) then begin
      Hashtbl.replace color root `Active;
      let stack = ref [ (root, succ_array root, ref 0) ] in
      while !stack <> [] do
        let id, succ, next = List.hd !stack in
        if !next >= Array.length succ then begin
          Hashtbl.replace color id `Done;
          stack := List.tl !stack
        end
        else begin
          let s = succ.(!next) in
          incr next;
          match Hashtbl.find_opt color s with
          | Some `Done -> ()
          | Some `Active ->
            let path = List.rev_map (fun (n, _, _) -> n) !stack in
            let rec from_s = function
              | x :: rest when x <> s -> from_s rest
              | suffix -> suffix
            in
            raise (Found (from_s path))
          | None ->
            Hashtbl.replace color s `Active;
            stack := (s, succ_array s, ref 0) :: !stack
        end
      done
    end
  in
  match Array.iter (fun (t : History.txn) -> visit t.id) txns with
  | () -> None
  | exception Found cycle -> Some cycle

let is_serializable history = serialization_cycle history = None

(* --- Completeness ----------------------------------------------------------

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

let check_completeness ~primary ~secondary =
  let prim = Mvcc.commits_with_updates primary in
  let sec = Mvcc.commits_with_updates secondary in
  let np = List.length prim and ns = List.length sec in
  if ns > np then
    Error
      (Printf.sprintf "secondary installed %d states but primary only has %d" ns
         np)
  else begin
    let update_eq (a : Wal.update) (b : Wal.update) =
      String.equal a.key b.key && Option.equal String.equal a.value b.value
    in
    (* On success, the primary's timestamp of the last state both share. *)
    let rec compare_prefix i at prim sec =
      match (prim, sec) with
      | _, [] -> Ok at
      | [], _ :: _ -> Error "impossible: secondary longer than primary"
      | (ts, pw) :: prest, (_, sw) :: srest ->
        if List.length pw = List.length sw && List.for_all2 update_eq pw sw then
          compare_prefix (i + 1) ts prest srest
        else
          Error
            (Printf.sprintf
               "state S^%d diverges: refresh installed a different writeset"
               (i + 1))
    in
    match compare_prefix 0 Timestamp.zero prim sec with
    | Error e -> Error e
    | Ok at ->
      if same_state primary ~at secondary then Ok ()
      else
        Error
          (Printf.sprintf
             "final secondary state differs from primary S^%d (%d vs %d keys)"
             ns (visible_count primary ~at)
             (visible_count secondary ~at:(Mvcc.latest_commit_ts secondary)))
  end

let analyze ?clock history =
  let txns = committed_txns history in
  let weak_si_violations = weak_si_violations txns in
  { (wall_sweep ?clock txns) with weak_si_violations }

let satisfies guarantee report =
  report.weak_si_violations = []
  && report.fence_violations = []
  &&
  match guarantee with
  | Session.Weak -> true
  | Session.Prefix_consistent -> report.inversions_after_update = []
  | Session.Strong_session -> report.inversions_in_session = []
  | Session.Strong -> report.inversions_all = []
