open Lsr_storage
open Lsr_core

(* The definitions quantify over committed transactions only. *)
let committed_txns history =
  History.transactions history
  |> List.filter (fun (t : History.txn) ->
         t.kind = History.Read_only || Option.is_some t.commit_ts)
  |> Array.of_list

(* Polynomial-time black-box construction in the style of Huang et al.'s
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
      History.fold_reads t ~init:() ~f:(fun () key _ ->
          if not (Hashtbl.mem own_keys key) then
            match Hashtbl.find_opt chains key with
            | None -> ()
            | Some chain ->
              let pos = partition chain t.snapshot in
              if pos > 0 then add_edge (snd chain.(pos - 1)) t.id;
              if pos < Array.length chain then add_edge t.id (snd chain.(pos))))
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
