(* The pre-PR-6 dynamic checker, kept verbatim as a test-only oracle: the
   differential suite in test_checker_diff fuzzes histories and asserts the
   rewritten polynomial checker in Lsr_core.Checker agrees with this
   implementation on every verdict and produces equivalent witnesses. The
   algorithms here are the quadratic originals (list-based version-chain
   walks, List.mem edge dedup, recursive DFS) — correct on small histories,
   which is all the oracle needs. *)

open Lsr_storage
open Lsr_core

type inversion = { earlier : History.txn; later : History.txn }

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
  let check_txn (t : History.txn) =
    let own_writes =
      List.fold_left
        (fun acc { Wal.key; _ } -> key :: acc)
        [] t.writes
    in
    List.iter
      (fun (key, observed) ->
        if not (List.mem key own_writes) then begin
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
      (Fixtures.read_list t)
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

let serialization_cycle history =
  let txns = List.filter committed (History.transactions history) in
  let writers : (string, (Timestamp.t * int) list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
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
  let chains = Hashtbl.create 256 in
  Hashtbl.iter
    (fun key chain ->
      Hashtbl.replace chains key
        (List.sort (fun (a, _) (b, _) -> Timestamp.compare a b) chain))
    writers;
  let edges : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let add_edge a b =
    if a <> b then
      let succ = Option.value ~default:[] (Hashtbl.find_opt edges a) in
      if not (List.mem b succ) then Hashtbl.replace edges a (b :: succ)
  in
  Hashtbl.iter
    (fun _ chain ->
      let rec link = function
        | (_, a) :: ((_, b) :: _ as rest) ->
          add_edge a b;
          link rest
        | [ _ ] | [] -> ()
      in
      link chain)
    chains;
  List.iter
    (fun (t : History.txn) ->
      let own_keys = List.map (fun { Wal.key; _ } -> key) t.writes in
      List.iter
        (fun (key, _) ->
          if not (List.mem key own_keys) then
            match Hashtbl.find_opt chains key with
            | None -> ()
            | Some chain ->
              let visible =
                List.fold_left
                  (fun acc (cts, id) ->
                    if Timestamp.compare cts t.snapshot <= 0 then Some (cts, id)
                    else acc)
                  None chain
              in
              let next =
                List.find_opt
                  (fun (cts, _) -> Timestamp.compare cts t.snapshot > 0)
                  chain
              in
              (match visible with
              | Some (_, writer) -> add_edge writer t.id
              | None -> ());
              (match next with
              | Some (_, overwriter) -> add_edge t.id overwriter
              | None -> ()))
        (Fixtures.read_list t))
    txns;
  let color = Hashtbl.create 64 in
  let cycle = ref None in
  let rec visit path id =
    match Hashtbl.find_opt color id with
    | Some `Done -> ()
    | Some `Active ->
      if !cycle = None then begin
        let rec take acc = function
          | [] -> acc
          | x :: _ when x = id -> x :: acc
          | x :: rest -> take (x :: acc) rest
        in
        cycle := Some (take [] path)
      end
    | None ->
      Hashtbl.replace color id `Active;
      List.iter
        (fun succ -> if !cycle = None then visit (id :: path) succ)
        (Option.value ~default:[] (Hashtbl.find_opt edges id));
      Hashtbl.replace color id `Done
  in
  List.iter
    (fun (t : History.txn) -> if !cycle = None then visit [] t.id)
    txns;
  !cycle

let is_serializable history = serialization_cycle history = None

type report = {
  weak_si_violations : string list;
  inversions_all : inversion list;
  inversions_in_session : inversion list;
  inversions_after_update : inversion list;
}

let analyze history =
  {
    weak_si_violations = check_weak_si history;
    inversions_all = inversions history;
    inversions_in_session = inversions ~same_session_only:true history;
    inversions_after_update =
      inversions ~same_session_only:true ~earlier_updates_only:true history;
  }

let satisfies guarantee report =
  report.weak_si_violations = []
  &&
  match guarantee with
  | Session.Weak -> true
  | Session.Prefix_consistent -> report.inversions_after_update = []
  | Session.Strong_session -> report.inversions_in_session = []
  | Session.Strong -> report.inversions_all = []
