(* A guided tour of the SQL phenomena P0-P5 (the paper's appendix) against
   the strong-SI storage engine.

   Run with: dune exec examples/anomalies.exe

   For each phenomenon we attempt to provoke it through real transactions on
   the Mvcc engine, transcribe the execution into an Anomaly trace, and let
   the detector deliver the verdict. SI excludes P0-P4; P5 (write skew) is
   the one it admits — the reason SI is weaker than serializability. *)

open Lsr_storage
open Lsr_serializability

let verdict name detected expected =
  Printf.printf "%-28s %-12s %s\n" name
    (if detected then "OBSERVED" else "prevented")
    (if detected = expected then "(as SI predicts)" else "(UNEXPECTED!)")

(* Trace-building helpers: run ops against the engine AND record them. *)
type ctx = { db : Mvcc.t; mutable trace : Anomaly.op list }

let make_ctx () = { db = Mvcc.create (); trace = [] }
let emit ctx op = ctx.trace <- op :: ctx.trace

let begin_txn ctx =
  let txn = Mvcc.begin_txn ctx.db in
  emit ctx (Anomaly.Begin (Mvcc.txn_id txn));
  txn

let read ctx txn key =
  let value = Mvcc.read ctx.db txn key in
  emit ctx (Anomaly.Read { txn = Mvcc.txn_id txn; key; value });
  value

let write ctx txn key value =
  Mvcc.write ctx.db txn key value;
  emit ctx (Anomaly.Write { txn = Mvcc.txn_id txn; key; value; preds = [] })

let finish ctx txn =
  match Mvcc.commit ctx.db txn with
  | Mvcc.Committed _ ->
    emit ctx (Anomaly.Commit (Mvcc.txn_id txn));
    true
  | Mvcc.Aborted _ ->
    emit ctx (Anomaly.Abort (Mvcc.txn_id txn));
    false

let trace ctx = List.rev ctx.trace

let seed ctx bindings =
  let txn = Mvcc.begin_txn ctx.db in
  List.iter (fun (k, v) -> Mvcc.write ctx.db txn k (Some v)) bindings;
  match Mvcc.commit ctx.db txn with
  | Mvcc.Committed _ -> ()
  | Mvcc.Aborted _ -> assert false

(* P0: write x in T1, overwrite in T2 before T1 ends. Writes are buffered
   per transaction and resolved by first-committer-wins, so both cannot
   commit. *)
let p0 () =
  let ctx = make_ctx () in
  let t1 = begin_txn ctx and t2 = begin_txn ctx in
  write ctx t1 "x" (Some "from-t1");
  write ctx t2 "x" (Some "from-t2");
  ignore (finish ctx t1);
  ignore (finish ctx t2);
  verdict "P0 dirty write" (Anomaly.dirty_writes (trace ctx) <> []) false

(* P1: T2 tries to read T1's uncommitted write. Snapshots only ever contain
   committed versions. *)
let p1 () =
  let ctx = make_ctx () in
  seed ctx [ ("x", "committed") ];
  let t1 = begin_txn ctx and t2 = begin_txn ctx in
  write ctx t1 "x" (Some "dirty");
  ignore (read ctx t2 "x");
  ignore (finish ctx t1);
  ignore (finish ctx t2);
  verdict "P1 dirty read" (Anomaly.dirty_reads (trace ctx) <> []) false

(* P2: T1 reads x twice around T2's committed update. The snapshot pins the
   first value. *)
let p2 () =
  let ctx = make_ctx () in
  seed ctx [ ("x", "v1") ];
  let t1 = begin_txn ctx in
  ignore (read ctx t1 "x");
  let t2 = begin_txn ctx in
  write ctx t2 "x" (Some "v2");
  ignore (finish ctx t2);
  ignore (read ctx t1 "x");
  ignore (finish ctx t1);
  verdict "P2 fuzzy read" (Anomaly.fuzzy_reads (trace ctx) <> []) false

(* P3: a predicate scan repeated around a committed insert. The snapshot
   fixes the result set. *)
let p3 () =
  let ctx = make_ctx () in
  let books = Table.define ctx.db ~name:"books" in
  seed ctx [ ("t:books:a", Row.encode [ ("price", Row.Int 5) ]) ];
  let pred = "price<10" in
  let scan txn =
    let rows = Table.scan books txn ~where:(fun r -> Row.int_exn r "price" < 10) in
    emit ctx
      (Anomaly.Pred_read
         { txn = Mvcc.txn_id txn; pred; result = List.map fst rows });
    rows
  in
  let t1 = begin_txn ctx in
  ignore (scan t1);
  let t2 = begin_txn ctx in
  Table.insert books t2 ~pk:"b" [ ("price", Row.Int 3) ];
  emit ctx
    (Anomaly.Write
       { txn = Mvcc.txn_id t2; key = "t:books:b"; value = Some "row"; preds = [ pred ] });
  ignore (finish ctx t2);
  ignore (scan t1);
  ignore (finish ctx t1);
  verdict "P3 phantom" (Anomaly.phantoms (trace ctx) <> []) false

(* P4: the classic lost update — read, concurrent committed write, write
   back. First-committer-wins aborts the overwriting transaction. *)
let p4 () =
  let ctx = make_ctx () in
  seed ctx [ ("balance", "100") ];
  let t1 = begin_txn ctx in
  let v = Option.get (read ctx t1 "balance") in
  let t2 = begin_txn ctx in
  write ctx t2 "balance" (Some "150");
  ignore (finish ctx t2);
  write ctx t1 "balance" (Some (string_of_int (int_of_string v + 10)));
  let t1_committed = finish ctx t1 in
  verdict "P4 lost update" (Anomaly.lost_updates (trace ctx) <> []) false;
  Printf.printf "    (the second writer %s)\n"
    (if t1_committed then "committed — lost update!" else "was aborted by FCW");
  let final = Mvcc.read_at ctx.db (Mvcc.latest_commit_ts ctx.db) "balance" in
  Printf.printf "    final balance: %s\n" (Option.value ~default:"?" final)

(* P5: write skew — the anomaly SI admits. Two doctors go off call; each
   checks the roster invariant (>= 1 on call) and removes themself.
   Disjoint writes, crossed reads: both commit under SI, violating the
   invariant. *)
let p5 () =
  let ctx = make_ctx () in
  seed ctx [ ("oncall:alice", "yes"); ("oncall:bob", "yes") ];
  let on_call txn =
    (if read ctx txn "oncall:alice" = Some "yes" then 1 else 0)
    + if read ctx txn "oncall:bob" = Some "yes" then 1 else 0
  in
  let t_alice = begin_txn ctx and t_bob = begin_txn ctx in
  if on_call t_alice >= 2 then write ctx t_alice "oncall:alice" (Some "no");
  if on_call t_bob >= 2 then write ctx t_bob "oncall:bob" (Some "no");
  ignore (finish ctx t_alice);
  ignore (finish ctx t_bob);
  verdict "P5 write skew" (Anomaly.write_skews (trace ctx) <> []) true;
  let still_on txn_key =
    Mvcc.read_at ctx.db (Mvcc.latest_commit_ts ctx.db) txn_key = Some "yes"
  in
  Printf.printf "    doctors still on call: %d (invariant wanted >= 1)\n"
    ((if still_on "oncall:alice" then 1 else 0)
    + if still_on "oncall:bob" then 1 else 0)

let () =
  print_endline "SQL phenomena under snapshot isolation (paper appendix A):\n";
  p0 ();
  p1 ();
  p2 ();
  p3 ();
  p4 ();
  p5 ();
  print_endline
    "\nsnapshot isolation excludes P0-P4 but admits P5 — weaker than\n\
     serializability, which is why the paper can exploit it for concurrency."
