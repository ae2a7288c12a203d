(* The paper's motivating scenario (§1): an online bookstore running on a
   lazily replicated database.

   Run with: dune exec examples/bookstore.exe

   A customer submits T_buy (purchase) followed by T_check (order status).
   Under plain weak SI the status check can miss the purchase — a
   transaction inversion. Under strong session SI it cannot, while other
   customers still enjoy fully lazy (non-blocking) reads. The example also
   exercises the relational layer and first-committer-wins on stock
   contention. *)

open Lsr_core
open Lsr_storage

let update_exn sys c f =
  match System.update sys c f with
  | Ok v -> v
  | Error _ -> failwith "transaction aborted"

let seed_catalogue sys =
  let admin = System.connect sys "admin" in
  update_exn sys admin (fun h ->
      Handle.row_put h ~table:"books" ~pk:"sicp"
        [ ("title", Row.Text "Structure and Interpretation"); ("stock", Row.Int 3);
          ("price", Row.Float 45.0) ];
      Handle.row_put h ~table:"books" ~pk:"taocp"
        [ ("title", Row.Text "The Art of Computer Programming");
          ("stock", Row.Int 1); ("price", Row.Float 180.0) ];
      Handle.row_put h ~table:"books" ~pk:"ddia"
        [ ("title", Row.Text "Designing Data-Intensive Applications");
          ("stock", Row.Int 7); ("price", Row.Float 38.5) ]);
  System.pump sys

let buy sys customer ~order ~book =
  update_exn sys customer (fun h ->
      let ok =
        Handle.row_update h ~table:"books" ~pk:book (fun row ->
            Row.set row "stock" (Row.Int (Row.int_exn row "stock" - 1)))
      in
      if not ok then failwith "unknown book";
      Handle.row_put h ~table:"orders" ~pk:order
        [ ("book", Row.Text book); ("status", Row.Text "placed") ])

let check_order sys customer ~order =
  System.read sys customer (fun h ->
      Option.map
        (fun row -> Row.text_exn row "status")
        (Handle.row_get h ~table:"orders" ~pk:order))

let shop guarantee =
  Printf.printf "\n--- bookstore under %s ---\n" (Session.guarantee_name guarantee);
  let sys = System.create ~secondaries:3 ~guarantee () in
  seed_catalogue sys;

  (* The §1 sequence: T_buy then T_check in the same customer session. *)
  let alice = System.connect sys "alice" in
  buy sys alice ~order:"order-1001" ~book:"sicp";
  (match check_order sys alice ~order:"order-1001" with
  | Some status -> Printf.printf "alice checks her order: %s\n" status
  | None ->
    print_endline
      "alice checks her order: NOT FOUND — a transaction inversion! she just \
       bought it");

  (* A different customer browsing concurrently: under strong session SI,
     no waiting (their session has no pending constraint). *)
  let carol = System.connect sys "carol" in
  let in_stock =
    System.read sys carol (fun h ->
        Handle.row_scan h ~table:"books" ~where:(fun row ->
            Row.int_exn row "stock" > 0))
  in
  Printf.printf "carol browses %d titles in stock (lazy read, no waiting)\n"
    (List.length in_stock);

  (* Catch up replication, then audit the run against the SI definitions. *)
  System.pump sys;
  let v =
    Watchdog.verdict
      (Watchdog.replay ~clock:(System.commit_clock sys) ~guarantee
         (System.history sys))
  in
  Printf.printf
    "audit: weak-SI violations=%d, inversions (any session)=%d, inversions \
     (within a session)=%d\n"
    v.Watchdog.read_mismatches v.Watchdog.v_inversions_all
    v.Watchdog.v_inversions_in_session;
  Printf.printf "meets its advertised guarantee? %b\n" (v.Watchdog.alerts_total = 0)

let stock_contention () =
  print_endline "\n--- first-committer-wins on the last copy of TAOCP ---";
  let sys = System.create ~secondaries:2 ~guarantee:Session.Strong_session () in
  seed_catalogue sys;
  (* Two concurrent purchases of the same single-copy book, expressed
     directly against the primary to get real concurrency. *)
  let db = System.primary_db sys in
  let t1 = Mvcc.begin_txn db in
  let t2 = Mvcc.begin_txn db in
  let books = Table.define db ~name:"books" in
  let buy_in txn =
    match Table.get books txn ~pk:"taocp" with
    | Some row when Row.int_exn row "stock" > 0 ->
      Table.insert books txn ~pk:"taocp"
        (Row.set row "stock" (Row.Int (Row.int_exn row "stock" - 1)))
    | Some _ | None -> failwith "out of stock"
  in
  buy_in t1;
  buy_in t2;
  (match Mvcc.commit db t1 with
  | Mvcc.Committed _ -> print_endline "dave's purchase: committed"
  | Mvcc.Aborted _ -> print_endline "dave's purchase: aborted");
  (match Mvcc.commit db t2 with
  | Mvcc.Committed _ -> print_endline "erin's purchase: committed (BUG!)"
  | Mvcc.Aborted (Mvcc.Write_conflict _) ->
    print_endline
      "erin's purchase: aborted by first-committer-wins — no double-sell"
  | Mvcc.Aborted Mvcc.Forced -> assert false);
  System.pump sys;
  let stock =
    Mvcc.read_at db (Mvcc.latest_commit_ts db) "t:books:taocp"
    |> Option.map (fun s -> Row.int_exn (Row.decode s) "stock")
  in
  Printf.printf "remaining stock: %s\n"
    (match stock with Some n -> string_of_int n | None -> "?")

let () =
  shop Session.Weak;
  shop Session.Strong_session;
  shop Session.Strong;
  stock_contention ()
