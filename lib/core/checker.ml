open Lsr_storage

type inversion = { earlier : History.txn; later : History.txn }

let pp_inversion ppf { earlier; later } =
  Format.fprintf ppf "%a inverted by %a" History.pp_txn earlier History.pp_txn
    later

(* The database state a committed transaction pins:
   - an update transaction pins the state it produced (its commit ts);
   - a read-only transaction pins the state it observed (its snapshot).
   Aborted transactions pin nothing (the definitions quantify over committed
   transactions only). *)
let effective_state (t : History.txn) =
  match (t.kind, t.commit_ts) with
  | History.Update, Some ts -> Some ts
  | History.Update, None -> None
  | History.Read_only, _ -> Some t.snapshot

let committed (t : History.txn) =
  match (t.kind, t.commit_ts) with
  | History.Update, Some _ -> true
  | History.Update, None -> false
  | History.Read_only, _ -> true

(* Sweep transactions in wall order: for each transaction [t2], find the
   maximal state pinned by any committed transaction that finished before
   [t2]'s first operation (globally, and per session). An inversion exists
   when [t2]'s snapshot is older than that maximum. O(n log n). *)
let inversions ?(same_session_only = false) ?(earlier_updates_only = false)
    history =
  let txns = History.transactions history in
  let by_finish =
    List.sort (fun a b -> Int.compare a.History.finished b.History.finished)
      (List.filter committed txns)
  in
  let by_start =
    List.sort (fun a b -> Int.compare a.History.first_op b.History.first_op)
      (List.filter committed txns)
  in
  let global_max : (Timestamp.t * History.txn) option ref = ref None in
  let session_max : (string, Timestamp.t * History.txn) Hashtbl.t =
    Hashtbl.create 64
  in
  let note (t : History.txn) =
    match effective_state t with
    | None -> ()
    | Some _ when earlier_updates_only && t.kind = History.Read_only -> ()
    | Some ts ->
      (match !global_max with
      | Some (best, _) when Timestamp.compare best ts >= 0 -> ()
      | Some _ | None -> global_max := Some (ts, t));
      (match Hashtbl.find_opt session_max t.session with
      | Some (best, _) when Timestamp.compare best ts >= 0 -> ()
      | Some _ | None -> Hashtbl.replace session_max t.session (ts, t))
  in
  let rec sweep pending acc = function
    | [] -> List.rev acc
    | (t2 : History.txn) :: rest ->
      let rec absorb = function
        | (t1 : History.txn) :: more when t1.finished < t2.first_op ->
          note t1;
          absorb more
        | remaining -> remaining
      in
      let pending = absorb pending in
      let best =
        if same_session_only then Hashtbl.find_opt session_max t2.session
        else !global_max
      in
      let acc =
        match best with
        | Some (ts, t1) when Timestamp.compare t2.snapshot ts < 0 ->
          { earlier = t1; later = t2 } :: acc
        | Some _ | None -> acc
      in
      sweep pending acc rest
  in
  sweep by_finish [] by_start

let is_strong_si history = inversions history = []

let is_strong_session_si history =
  inversions ~same_session_only:true history = []

let check_weak_si history =
  let txns = History.transactions history in
  let updates =
    List.filter_map
      (fun (t : History.txn) ->
        match (t.kind, t.commit_ts) with
        | History.Update, Some ts -> Some (ts, t.writes)
        | History.Update, None | History.Read_only, _ -> None)
      txns
    |> List.sort (fun (a, _) (b, _) -> Timestamp.compare a b)
  in
  let by_snapshot =
    List.sort (fun a b -> Timestamp.compare a.History.snapshot b.History.snapshot) txns
  in
  let state : (string, string option) Hashtbl.t = Hashtbl.create 1024 in
  let violations = ref [] in
  let own_writes = Hashtbl.create 16 in
  let check_txn (t : History.txn) =
    Hashtbl.reset own_writes;
    List.iter (fun { Wal.key; _ } -> Hashtbl.replace own_writes key ()) t.writes;
    List.iter
      (fun (key, observed) ->
        if not (Hashtbl.mem own_writes key) then begin
          let expected = Option.join (Hashtbl.find_opt state key) in
          if expected <> observed then
            violations :=
              Format.asprintf
                "%a read %s = %s but state S@%a has %s" History.pp_txn t key
                (match observed with Some v -> v | None -> "<none>")
                Timestamp.pp t.snapshot
                (match expected with Some v -> v | None -> "<none>")
              :: !violations
        end)
      t.reads
  in
  let rec sweep pending_updates = function
    | [] -> ()
    | (t : History.txn) :: rest ->
      let rec absorb = function
        | (ts, writes) :: more when Timestamp.compare ts t.snapshot <= 0 ->
          List.iter (fun { Wal.key; value } -> Hashtbl.replace state key value) writes;
          absorb more
        | remaining -> remaining
      in
      let pending_updates = absorb pending_updates in
      if committed t then check_txn t;
      sweep pending_updates rest
  in
  sweep updates by_snapshot;
  List.rev !violations

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
  let txns = Array.of_list (List.filter committed (History.transactions history)) in
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
    let rec compare_prefix i prim sec =
      match (prim, sec) with
      | _, [] -> Ok i
      | [], _ :: _ -> Error "impossible: secondary longer than primary"
      | (_, pw) :: prest, (_, sw) :: srest ->
        if List.length pw = List.length sw && List.for_all2 update_eq pw sw then
          compare_prefix (i + 1) prest srest
        else
          Error
            (Printf.sprintf
               "state S^%d diverges: refresh installed a different writeset"
               (i + 1))
    in
    match compare_prefix 0 prim sec with
    | Error e -> Error e
    | Ok _ ->
      let expected = Mvcc.nth_state primary ns in
      let actual = Mvcc.committed_state secondary in
      if expected = actual then Ok ()
      else
        Error
          (Printf.sprintf
             "final secondary state differs from primary S^%d (%d vs %d keys)"
             ns (List.length expected) (List.length actual))
  end

(* --- Fence audit -------------------------------------------------------------

   Every committed read that carried a freshness fence must have observed a
   snapshot actually satisfying it:
   - [Exact ts]: snapshot >= ts;
   - [Session_seq]: snapshot >= the session's fence floor at the read's
     first operation — the max over commit timestamps of the session's
     earlier committed updates and snapshots of its earlier
     [Session_seq]-fenced reads (the same wall-order sweep as
     [inversions], restricted to what the fence promises);
   - [Max_age d]: snapshot >= the commit-visibility horizon at
     [read_at - d], replayed from the primary's commit clock. Without a
     clock a [Max_age] claim is unauditable and reported as a violation —
     recording fenced histories without the clock is a harness bug. *)
let check_fences ?clock history =
  let committed_txns = List.filter committed (History.transactions history) in
  let by_start =
    List.sort (fun a b -> Int.compare a.History.first_op b.History.first_op)
      committed_txns
  in
  let by_finish =
    List.sort (fun a b -> Int.compare a.History.finished b.History.finished)
      committed_txns
  in
  let floors : (string, Timestamp.t) Hashtbl.t = Hashtbl.create 64 in
  let note (t : History.txn) =
    let bump ts =
      match Hashtbl.find_opt floors t.session with
      | Some best when Timestamp.compare best ts >= 0 -> ()
      | Some _ | None -> Hashtbl.replace floors t.session ts
    in
    (match (t.kind, t.commit_ts) with
    | History.Update, Some cts -> bump cts
    | History.Update, None | History.Read_only, _ -> ());
    match (t.kind, t.fence) with
    | History.Read_only, Some { History.claim = Session.Session_seq; _ } ->
      bump t.snapshot
    | _, _ -> ()
  in
  let violations = ref [] in
  let violation t2 fmt =
    Format.kasprintf
      (fun msg ->
        violations :=
          Format.asprintf "%a: fence violated: %s" History.pp_txn t2 msg
          :: !violations)
      fmt
  in
  let check (t2 : History.txn) =
    match (t2.kind, t2.fence) with
    | History.Update, _ | _, None -> ()
    | History.Read_only, Some { History.claim; read_at } -> (
      match claim with
      | Session.Exact ts ->
        if Timestamp.compare t2.snapshot ts < 0 then
          violation t2 "snapshot %a < exact fence %a" Timestamp.pp t2.snapshot
            Timestamp.pp ts
      | Session.Session_seq -> (
        match Hashtbl.find_opt floors t2.session with
        | Some floor when Timestamp.compare t2.snapshot floor < 0 ->
          violation t2 "snapshot %a < session fence floor %a" Timestamp.pp
            t2.snapshot Timestamp.pp floor
        | Some _ | None -> ())
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
  let rec sweep pending = function
    | [] -> ()
    | (t2 : History.txn) :: rest ->
      let rec absorb = function
        | (t1 : History.txn) :: more when t1.finished < t2.first_op ->
          note t1;
          absorb more
        | remaining -> remaining
      in
      let pending = absorb pending in
      check t2;
      sweep pending rest
  in
  sweep by_finish by_start;
  List.rev !violations

type report = {
  weak_si_violations : string list;
  inversions_all : inversion list;
  inversions_in_session : inversion list;
  inversions_after_update : inversion list;
  fence_violations : string list;
}

let analyze ?clock history =
  {
    weak_si_violations = check_weak_si history;
    inversions_all = inversions history;
    inversions_in_session = inversions ~same_session_only:true history;
    inversions_after_update =
      inversions ~same_session_only:true ~earlier_updates_only:true history;
    fence_violations = check_fences ?clock history;
  }

let satisfies guarantee report =
  report.weak_si_violations = []
  && report.fence_violations = []
  &&
  match guarantee with
  | Session.Weak -> true
  | Session.Prefix_consistent -> report.inversions_after_update = []
  | Session.Strong_session -> report.inversions_in_session = []
  | Session.Strong -> report.inversions_all = []
