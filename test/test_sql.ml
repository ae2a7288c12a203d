(* Tests for the SQL front end (lsr_sql): lexer, parser (including a
   printer/parser round-trip property), executor semantics over the storage
   engine, index-accelerated plans, and routing through the replicated
   system. *)

open Lsr_sql
open Lsr_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_exn input =
  match Parser.parse input with
  | Ok stmt -> stmt
  | Error e -> Alcotest.failf "parse %S: %s" input e

let parse_err input =
  match Parser.parse input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected a syntax error for %S" input

(* --- Lexer -------------------------------------------------------------------- *)

let test_lexer_tokens () =
  match Lexer.tokenize "SELECT a, b FROM t WHERE x <= 2.5 AND y <> 'it''s'" with
  | Error e -> Alcotest.fail e
  | Ok tokens ->
    check_int "token count (incl. eof)" 15 (List.length tokens);
    check_bool "string unescaped" true
      (List.exists (function Lexer.String_lit "it's" -> true | _ -> false) tokens);
    check_bool "float lexed" true
      (List.exists (function Lexer.Float_lit 2.5 -> true | _ -> false) tokens)

let test_lexer_negative_numbers () =
  match Lexer.tokenize "-42 -2.5" with
  | Ok [ Lexer.Int_lit (-42); Lexer.Float_lit (-2.5); Lexer.Eof ] -> ()
  | Ok _ -> Alcotest.fail "unexpected tokens"
  | Error e -> Alcotest.fail e

let test_lexer_bang_equals () =
  match Lexer.tokenize "a != 1" with
  | Ok [ Lexer.Ident "a"; Lexer.Symbol "<>"; Lexer.Int_lit 1; Lexer.Eof ] -> ()
  | Ok _ -> Alcotest.fail "!= should lex as <>"
  | Error e -> Alcotest.fail e

let test_lexer_errors () =
  List.iter
    (fun bad ->
      match Lexer.tokenize bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected lex error for %S" bad)
    [ "a @ b"; "'unterminated" ]

(* --- Parser ------------------------------------------------------------------- *)

let test_parse_select_star () =
  match parse_exn "select * from books" with
  | Ast.Select { projection = Ast.All; table = "books"; where = Ast.True; group_by = None; having = Ast.True; order_by = None; limit = None } ->
    ()
  | _ -> Alcotest.fail "unexpected ast"

let test_parse_select_full () =
  match
    parse_exn
      "SELECT title, price FROM books WHERE price >= 10 AND NOT (genre = \
       'poetry' OR stock <= 0) ORDER BY price DESC LIMIT 3;"
  with
  | Ast.Select
      {
        projection = Ast.Columns [ "title"; "price" ];
        table = "books";
        where = Ast.And (_, Ast.Not (Ast.Or (_, _)));
        group_by = None;
        having = Ast.True;
        order_by = Some (Ast.Desc "price");
        limit = Some 3;
      } ->
    ()
  | stmt -> Alcotest.failf "unexpected ast: %s" (Ast.to_string stmt)

let test_parse_insert () =
  match
    parse_exn
      "INSERT INTO books (pk, title, available) VALUES ('b1', 'SICP', TRUE)"
  with
  | Ast.Insert
      { table = "books"; row = [ ("pk", Ast.Text "b1"); ("title", Ast.Text "SICP"); ("available", Ast.Bool true) ] } ->
    ()
  | stmt -> Alcotest.failf "unexpected ast: %s" (Ast.to_string stmt)

let test_parse_update_delete () =
  (match parse_exn "UPDATE books SET price = 9.5, sale = TRUE WHERE pk = 'b1'" with
  | Ast.Update { set = [ ("price", Ast.Float 9.5); ("sale", Ast.Bool true) ]; _ } -> ()
  | stmt -> Alcotest.failf "unexpected ast: %s" (Ast.to_string stmt));
  match parse_exn "DELETE FROM books" with
  | Ast.Delete { table = "books"; where = Ast.True } -> ()
  | stmt -> Alcotest.failf "unexpected ast: %s" (Ast.to_string stmt)

let test_parse_precedence () =
  (* a = 1 OR b = 2 AND c = 3  ==  a=1 OR (b=2 AND c=3) *)
  match parse_exn "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3" with
  | Ast.Select { where = Ast.Or (Ast.Cmp { column = "a"; _ }, Ast.And (_, _)); _ } ->
    ()
  | stmt -> Alcotest.failf "precedence wrong: %s" (Ast.to_string stmt)

let test_parse_errors () =
  List.iter parse_err
    [
      "";
      "SELEC * FROM t";
      "SELECT * FROM";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t WHERE a ="
      ;
      "INSERT INTO t (a, b) VALUES (1)";
      "UPDATE t SET";
      "SELECT * FROM t LIMIT x";
      "SELECT * FROM t; SELECT * FROM t";
      "SELECT FROM t" (* FROM is reserved: no columns given *);
    ]

(* A non-aggregate element inside an aggregate projection used to crash the
   parser; it must now report the offending token. *)
let test_parse_aggregate_offender () =
  match Parser.parse "SELECT COUNT(*), title FROM books" with
  | Ok _ -> Alcotest.fail "mixed aggregate/column projection must not parse"
  | Error msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    check_bool "names the expected form" true (contains "aggregate");
    check_bool "names the offending token" true (contains "title")

(* Printer output re-parses to the same statement. *)
let statement_gen =
  let open QCheck.Gen in
  let identifier = map (Printf.sprintf "c%d") (int_range 0 5) in
  let table = map (Printf.sprintf "t%d") (int_range 0 2) in
  let literal =
    oneof
      [
        map (fun i -> Ast.Int i) (int_range (-100) 100);
        map (fun f -> Ast.Float f) (float_bound_inclusive 100.);
        map (fun s -> Ast.Text s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map (fun b -> Ast.Bool b) bool;
        return Ast.Null;
      ]
  in
  let comparison = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let cond =
    sized
    @@ fix (fun self n ->
           if n <= 1 then
             oneof
               [
                 return Ast.True;
                 map3
                   (fun column op value -> Ast.Cmp { column; op; value })
                   identifier comparison literal;
               ]
           else
             oneof
               [
                 map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2));
                 map (fun a -> Ast.Not a) (self (n - 1));
               ])
  in
  let assignments = list_size (int_range 1 4) (pair identifier literal) in
  oneof
    [
      (let* projection =
         oneof
           [
             return Ast.All;
             map (fun cs -> Ast.Columns cs) (list_size (int_range 1 3) identifier);
           ]
       in
       let* table = table in
       let* where = cond in
       let* order_by =
         oneof
           [
             return None;
             map (fun c -> Some (Ast.Asc c)) identifier;
             map (fun c -> Some (Ast.Desc c)) identifier;
           ]
       in
       let* limit = oneof [ return None; map Option.some (int_range 0 10) ] in
       return (Ast.Select { projection; table; where; group_by = None; having = Ast.True; order_by; limit }));
      (let* aggs =
         list_size (int_range 1 3)
           (oneof
              [
                return Ast.Count_all;
                map (fun c -> Ast.Sum c) identifier;
                map (fun c -> Ast.Avg c) identifier;
                map (fun c -> Ast.Min c) identifier;
                map (fun c -> Ast.Max c) identifier;
              ])
       in
       let* table = table in
       let* where = cond in
       let* group_by =
         oneof [ return None; map Option.some (map (Printf.sprintf "c%d") (int_range 0 5)) ]
       in
       let* having =
         match group_by with
         | None -> return Ast.True
         | Some _ ->
           oneof
             [
               return Ast.True;
               map
                 (fun n -> Ast.Cmp { column = "count"; op = Ast.Ge; value = Ast.Int n })
                 (int_range 0 5);
             ]
       in
       return
         (Ast.Select
            { projection = Ast.Aggregates aggs; table; where; group_by;
              having; order_by = None; limit = None }));
      (let* table = table in
       let* row = assignments in
       return (Ast.Insert { table; row }));
      (let* table = table in
       let* set = assignments in
       let* where = cond in
       return (Ast.Update { table; set; where }));
      (let* table = table in
       let* where = cond in
       return (Ast.Delete { table; where }));
    ]
    |> fun base ->
    let* stmt = base in
    let* wrap = frequency [ (4, return false); (1, return true) ] in
    return (if wrap then Ast.Explain stmt else stmt)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"printer output re-parses identically" ~count:500
    (QCheck.make ~print:Ast.to_string statement_gen) (fun stmt ->
      match Parser.parse (Ast.to_string stmt) with
      | Ok reparsed -> reparsed = stmt
      | Error _ -> false)

(* --- Executor ------------------------------------------------------------------- *)

let with_books f =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  let h = Fixtures.handle ~schema:[ ("books", [ "genre" ]) ] db txn in
  let insert sql =
    match Sql.exec h sql with
    | Ok (Executor.Affected 1) -> ()
    | Ok _ | Error _ -> Alcotest.failf "seed insert failed: %s" sql
  in
  insert "INSERT INTO books (pk, title, price, genre) VALUES ('b1', 'SICP', 45.0, 'cs')";
  insert "INSERT INTO books (pk, title, price, genre) VALUES ('b2', 'TAOCP', 180.0, 'cs')";
  insert "INSERT INTO books (pk, title, price, genre) VALUES ('b3', 'Dune', 12.5, 'scifi')";
  insert "INSERT INTO books (pk, title, price) VALUES ('b4', 'Mystery', 9.0)";
  f h

let select_pks h sql =
  match Sql.exec h sql with
  | Ok (Executor.Rows { rows; _ }) -> List.map fst rows
  | Ok (Executor.Affected _ | Executor.Plan _) -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail e

let test_exec_select_where () =
  with_books (fun h ->
      Alcotest.(check (list string)) "numeric filter" [ "b2" ]
        (select_pks h "SELECT * FROM books WHERE price > 100");
      Alcotest.(check (list string)) "and/or" [ "b1"; "b3" ]
        (select_pks h
           "SELECT * FROM books WHERE price < 50 AND (genre = 'cs' OR genre = 'scifi')");
      Alcotest.(check (list string)) "int literal vs float column" [ "b3"; "b4" ]
        (select_pks h "SELECT * FROM books WHERE price <= 13"))

let test_exec_null_semantics () =
  with_books (fun h ->
      Alcotest.(check (list string)) "genre = NULL finds the genreless" [ "b4" ]
        (select_pks h "SELECT * FROM books WHERE genre = NULL");
      Alcotest.(check (list string)) "genre <> NULL finds the rest"
        [ "b1"; "b2"; "b3" ]
        (select_pks h "SELECT * FROM books WHERE genre <> NULL");
      Alcotest.(check (list string)) "comparison with absent column is false" []
        (select_pks h "SELECT * FROM books WHERE genre = 'cs' AND genre = NULL"))

let test_exec_order_limit () =
  with_books (fun h ->
      Alcotest.(check (list string)) "order by price" [ "b4"; "b3"; "b1"; "b2" ]
        (select_pks h "SELECT * FROM books ORDER BY price");
      Alcotest.(check (list string)) "desc + limit" [ "b2"; "b1" ]
        (select_pks h "SELECT * FROM books ORDER BY price DESC LIMIT 2");
      Alcotest.(check (list string)) "limit 0" []
        (select_pks h "SELECT * FROM books LIMIT 0"))

let test_exec_projection () =
  with_books (fun h ->
      match Sql.exec h "SELECT title FROM books WHERE pk = 'b1'" with
      | Ok (Executor.Rows { rows = [ (_, row) ]; _ }) ->
        check_int "one column" 1 (List.length row);
        Alcotest.(check string) "value" "SICP" (Row.text_exn row "title")
      | Ok _ | Error _ -> Alcotest.fail "projection failed")

let test_exec_update_delete_counts () =
  with_books (fun h ->
      (match Sql.exec h "UPDATE books SET sale = TRUE WHERE price < 50" with
      | Ok (Executor.Affected 3) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected 3 updates");
      Alcotest.(check (list string)) "updated rows visible" [ "b1"; "b3"; "b4" ]
        (select_pks h "SELECT * FROM books WHERE sale = TRUE");
      (match Sql.exec h "DELETE FROM books WHERE genre = 'cs'" with
      | Ok (Executor.Affected 2) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected 2 deletes");
      Alcotest.(check (list string)) "remaining" [ "b3"; "b4" ]
        (select_pks h "SELECT * FROM books"))

let test_exec_update_null_removes () =
  with_books (fun h ->
      (match Sql.exec h "UPDATE books SET genre = NULL WHERE pk = 'b1'" with
      | Ok (Executor.Affected 1) -> ()
      | Ok _ | Error _ -> Alcotest.fail "update failed");
      Alcotest.(check (list string)) "b1 now genreless" [ "b1"; "b4" ]
        (select_pks h "SELECT * FROM books WHERE genre = NULL"))

let test_exec_insert_replaces () =
  with_books (fun h ->
      (match
         Sql.exec h "INSERT INTO books (pk, title, price) VALUES ('b1', 'SICP 2e', 55.0)"
       with
      | Ok (Executor.Affected 1) -> ()
      | Ok _ | Error _ -> Alcotest.fail "insert failed");
      match Sql.exec h "SELECT title FROM books WHERE pk = 'b1'" with
      | Ok (Executor.Rows { rows = [ (_, row) ]; _ }) ->
        Alcotest.(check string) "replaced" "SICP 2e" (Row.text_exn row "title")
      | Ok _ | Error _ -> Alcotest.fail "reread failed")

let test_exec_int_pk () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  let h = Fixtures.handle db txn in
  (match Sql.exec h "INSERT INTO nums (pk, v) VALUES (7, 'seven')" with
  | Ok (Executor.Affected 1) -> ()
  | Ok _ | Error _ -> Alcotest.fail "insert failed");
  Alcotest.(check (list string)) "int pk becomes text key" [ "7" ]
    (select_pks h "SELECT * FROM nums")

let test_exec_missing_pk_rejected () =
  with_books (fun h ->
      match Sql.exec h "INSERT INTO books (title) VALUES ('orphan')" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "INSERT without pk must fail")

let test_exec_index_agrees_with_scan () =
  with_books (fun h ->
      (* genre is indexed; the executor must produce identical results with
         and without the index path. *)
      let indexed = select_pks h "SELECT * FROM books WHERE genre = 'cs'" in
      let scanned =
        select_pks h "SELECT * FROM books WHERE genre = 'cs' OR NOT TRUE"
      in
      Alcotest.(check (list string)) "same rows" scanned indexed)

(* Pinned repro of the cross-type index-equality soundness bug found by the
   randomized identity suite below: SQL numeric comparison treats Int 1 and
   Float 1.0 as equal, but the old index verification compared encoded
   scalar keys, which are type-tagged — so the indexed path dropped rows
   whose stored numeric type differed from the literal's. *)
let test_exec_index_cross_type_equality () =
  let db = Mvcc.create () in
  let txn = Mvcc.begin_txn db in
  let h = Fixtures.handle ~schema:[ ("t", [ "v" ]) ] db txn in
  let exec sql =
    match Sql.exec h sql with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  exec "INSERT INTO t (pk, v) VALUES ('int', 1)";
  exec "INSERT INTO t (pk, v) VALUES ('float', 1.0)";
  Alcotest.(check (list string))
    "indexed equality matches both numeric representations"
    [ "float"; "int" ]
    (select_pks h "SELECT * FROM t WHERE v = 1");
  Alcotest.(check (list string))
    "float literal too" [ "float"; "int" ]
    (select_pks h "SELECT * FROM t WHERE v = 1.0")

(* Randomized differential identity: the same rows and the same WHERE
   clause must produce the same result through the secondary-index path
   (equality and range) and through the full scan. Rows mix Int / Float /
   Text / Bool / missing values so the order-preserving key encoding and
   its re-verification are both exercised. *)
let test_exec_index_randomized_identity () =
  let module Rng = Lsr_sim.Rng in
  let rng = Rng.create 0xD1FF in
  let random_value () =
    match Rng.uniform rng ~lo:0 ~hi:9 with
    | 0 | 1 | 2 -> Some (string_of_int (Rng.uniform rng ~lo:(-20) ~hi:20))
    | 3 | 4 | 5 ->
      Some (Printf.sprintf "%.2f" (float_of_int (Rng.uniform rng ~lo:(-200) ~hi:200) /. 10.))
    | 6 | 7 ->
      Some (Printf.sprintf "'w%d'" (Rng.uniform rng ~lo:0 ~hi:30))
    | 8 -> Some (if Rng.bernoulli rng ~p:0.5 then "TRUE" else "FALSE")
    | _ -> None
  in
  let random_bound () =
    if Rng.bernoulli rng ~p:0.6 then
      string_of_int (Rng.uniform rng ~lo:(-20) ~hi:20)
    else Printf.sprintf "'w%d'" (Rng.uniform rng ~lo:0 ~hi:30)
  in
  let ops = [| ">"; ">="; "<"; "<="; "=" |] in
  let used_range = ref false in
  for trial = 0 to 29 do
    let mk indexed =
      let db = Mvcc.create () in
      let txn = Mvcc.begin_txn db in
      Fixtures.handle
        ~schema:[ ("t", if indexed then [ "v" ] else [] ) ]
        db txn
    in
    let hi = mk true and hs = mk false in
    let stmts =
      List.init 25 (fun i ->
          match random_value () with
          | Some v -> Printf.sprintf "INSERT INTO t (pk, v) VALUES ('r%02d', %s)" i v
          | None -> Printf.sprintf "INSERT INTO t (pk) VALUES ('r%02d')" i)
    in
    List.iter
      (fun sql ->
        List.iter
          (fun h ->
            match Sql.exec h sql with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: %s" sql e)
          [ hi; hs ])
      stmts;
    let where =
      match Rng.uniform rng ~lo:0 ~hi:2 with
      | 0 ->
        Printf.sprintf "v %s %s"
          ops.(Rng.uniform rng ~lo:0 ~hi:(Array.length ops - 1))
          (random_bound ())
      | 1 -> Printf.sprintf "v > %s AND v <= %s" (random_bound ()) (random_bound ())
      | _ -> Printf.sprintf "v >= %s AND v < %s" (random_bound ()) (random_bound ())
    in
    let q = Printf.sprintf "SELECT * FROM t WHERE %s" where in
    (match Sql.exec hi ("EXPLAIN " ^ q) with
    | Ok (Executor.Plan lines) ->
      if
        List.exists
          (fun l ->
            String.length l >= 25
            && String.sub l 0 25 = "access: index range scan ")
          lines
      then used_range := true
    | Ok _ | Error _ -> Alcotest.failf "EXPLAIN failed on trial %d" trial);
    Alcotest.(check (list string))
      (Printf.sprintf "trial %d: %s" trial where)
      (select_pks hs q) (select_pks hi q)
  done;
  check_bool "the index range path was actually exercised" true !used_range

let test_exec_render () =
  with_books (fun h ->
      match Sql.exec h "SELECT title FROM books WHERE pk = 'b1'" with
      | Ok result ->
        let rendered = Executor.render result in
        check_bool "mentions row count" true
          (String.length rendered > 0
          && String.sub rendered (String.length rendered - 7) 7 = "(1 row)")
      | Error e -> Alcotest.fail e)

let scalar_of h sql name =
  match Sql.exec h sql with
  | Ok (Executor.Rows { rows = [ (_, row) ]; _ }) -> Row.find row name
  | Ok _ -> Alcotest.fail "expected one aggregate row"
  | Error e -> Alcotest.fail e

let test_exec_aggregates () =
  with_books (fun h ->
      check_bool "count(*)" true
        (scalar_of h "SELECT COUNT(*) FROM books" "count" = Some (Row.Int 4));
      check_bool "count with where" true
        (scalar_of h "SELECT COUNT(*) FROM books WHERE genre = 'cs'" "count"
        = Some (Row.Int 2));
      check_bool "sum" true
        (scalar_of h "SELECT SUM(price) FROM books" "sum_price"
        = Some (Row.Float 246.5));
      check_bool "avg over subset" true
        (scalar_of h "SELECT AVG(price) FROM books WHERE genre = 'cs'" "avg_price"
        = Some (Row.Float 112.5));
      check_bool "min" true
        (scalar_of h "SELECT MIN(price) FROM books" "min_price"
        = Some (Row.Float 9.0));
      check_bool "max of text" true
        (scalar_of h "SELECT MAX(title) FROM books" "max_title"
        = Some (Row.Text "TAOCP")))

let test_exec_aggregate_combo () =
  with_books (fun h ->
      match Sql.exec h "SELECT COUNT(*), MIN(price), MAX(price) FROM books" with
      | Ok (Executor.Rows { columns = Some cols; rows = [ (_, row) ] }) ->
        Alcotest.(check (list string)) "column names"
          [ "count"; "min_price"; "max_price" ] cols;
        check_int "fields" 3 (List.length row)
      | Ok _ | Error _ -> Alcotest.fail "combo failed")

let test_exec_aggregate_empty_is_null () =
  with_books (fun h ->
      check_bool "count of nothing is 0" true
        (scalar_of h "SELECT COUNT(*) FROM books WHERE price > 999" "count"
        = Some (Row.Int 0));
      check_bool "sum of nothing is NULL (absent)" true
        (scalar_of h "SELECT SUM(price) FROM books WHERE price > 999" "sum_price"
        = None))

let test_exec_group_by () =
  with_books (fun h ->
      match
        Sql.exec h
          "SELECT COUNT(*), AVG(price) FROM books GROUP BY genre ORDER BY count DESC"
      with
      | Ok (Executor.Rows { columns = Some cols; rows }) ->
        Alcotest.(check (list string)) "columns" [ "genre"; "count"; "avg_price" ] cols;
        check_int "three groups (cs, scifi, none)" 3 (List.length rows);
        (* ORDER BY count DESC: the cs group (2 books) first. *)
        let _, first = List.hd rows in
        check_bool "largest group first" true
          (Row.find first "genre" = Some (Row.Text "cs")
          && Row.find first "count" = Some (Row.Int 2));
        (* The NULL group (b4 has no genre) carries no group field. *)
        check_bool "null group present" true
          (List.exists (fun (_, row) -> Row.find row "genre" = None) rows)
      | Ok _ | Error _ -> Alcotest.fail "group by failed")

let test_exec_group_by_with_where_and_limit () =
  with_books (fun h ->
      match
        Sql.exec h
          "SELECT MAX(price) FROM books WHERE price > 10 GROUP BY genre LIMIT 2"
      with
      | Ok (Executor.Rows { rows; _ }) -> check_int "limited groups" 2 (List.length rows)
      | Ok _ | Error _ -> Alcotest.fail "group by failed")

let test_exec_having () =
  with_books (fun h ->
      (match
         Sql.exec h "SELECT COUNT(*) FROM books GROUP BY genre HAVING count >= 2"
       with
      | Ok (Executor.Rows { rows; _ }) ->
        check_int "only the cs group qualifies" 1 (List.length rows);
        let _, row = List.hd rows in
        check_bool "it is cs" true (Row.find row "genre" = Some (Row.Text "cs"))
      | Ok _ | Error _ -> Alcotest.fail "having failed");
      (match
         Sql.exec h
           "SELECT AVG(price) FROM books GROUP BY genre HAVING avg_price < 50             AND genre <> NULL"
       with
      | Ok (Executor.Rows { rows; _ }) ->
        (* cs avg is 112.5 (excluded); scifi 12.5 qualifies; the NULL group
           is excluded by genre <> NULL. *)
        check_int "one qualifying group" 1 (List.length rows)
      | Ok _ | Error _ -> Alcotest.fail "having failed"))

let test_having_requires_group_by () =
  match Parser.parse "SELECT COUNT(*) FROM books HAVING count > 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "HAVING without GROUP BY must be rejected"

let test_group_by_requires_aggregates () =
  match Parser.parse "SELECT * FROM books GROUP BY genre" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "GROUP BY without aggregates must be rejected"

let test_exec_aggregate_order_by_rejected () =
  with_books (fun h ->
      match Sql.exec h "SELECT COUNT(*) FROM books ORDER BY price" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ORDER BY with aggregates must be rejected")

(* Random conditions over a random indexed table: the executor's
   index-accelerated plan must agree with brute-force evaluation. *)
let prop_executor_index_plan_sound =
  let cond_gen =
    let open QCheck.Gen in
    let literal =
      oneof
        [ map (fun i -> Ast.Int i) (int_range 0 4); return Ast.Null;
          map (fun b -> Ast.Bool b) bool ]
    in
    let comparison = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
    let cmp =
      map3
        (fun column op value -> Ast.Cmp { column; op; value })
        (oneofl [ "grp"; "v" ]) comparison literal
    in
    sized
    @@ fix (fun self n ->
           if n <= 1 then oneof [ return Ast.True; cmp ]
           else
             oneof
               [
                 map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2));
                 map (fun a -> Ast.Not a) (self (n - 1));
               ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 12) (pair (int_range 0 6) (pair (int_range 0 4) bool)))
        cond_gen)
  in
  QCheck.Test.make ~name:"index plan = brute force over random tables" ~count:300
    (QCheck.make gen) (fun (rows, where) ->
      let db = Mvcc.create () in
      let txn = Mvcc.begin_txn db in
      let h = Fixtures.handle ~schema:[ ("t", [ "grp" ]) ] db txn in
      List.iter
        (fun (pk, (grp, has_v)) ->
          Lsr_core.Handle.row_put h ~table:"t" ~pk:(string_of_int pk)
            (("grp", Row.Int grp) :: (if has_v then [ ("v", Row.Int grp) ] else [])))
        rows;
      let stmt =
        Ast.Select
          { projection = Ast.All; table = "t"; where; group_by = None;
            having = Ast.True; order_by = None; limit = None }
      in
      match Executor.execute h stmt with
      | Error _ -> false
      | Ok (Executor.Affected _ | Executor.Plan _) -> false
      | Ok (Executor.Rows { rows = got; _ }) ->
        (* Brute force: scan everything, filter with the same evaluator
           through a condition-free select. *)
        let all =
          match
            Executor.execute h
              (Ast.Select
                 { projection = Ast.All; table = "t"; where = Ast.True;
                   group_by = None; having = Ast.True; order_by = None;
                   limit = None })
          with
          | Ok (Executor.Rows { rows; _ }) -> rows
          | Ok (Executor.Affected _ | Executor.Plan _) | Error _ -> []
        in
        (* Reference filter: textual re-parse of the same WHERE to decouple
           from the plan, evaluated row by row via a one-row table. *)
        let matches row =
          let db2 = Mvcc.create () in
          let txn2 = Mvcc.begin_txn db2 in
          let h2 = Fixtures.handle db2 txn2 in
          Lsr_core.Handle.row_put h2 ~table:"one" ~pk:"x" row;
          match
            Executor.execute h2
              (Ast.Select
                 { projection = Ast.All; table = "one"; where; group_by = None;
                   having = Ast.True; order_by = None; limit = None })
          with
          | Ok (Executor.Rows { rows = [ _ ]; _ }) -> true
          | Ok _ | Error _ -> false
        in
        let expected = List.filter (fun (_, row) -> matches row) all in
        got = expected)

(* Group counts always sum to the ungrouped COUNT; HAVING TRUE is a no-op. *)
let prop_group_by_partitions =
  let gen =
    QCheck.Gen.(list_size (int_range 0 25) (pair (int_range 0 8) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"group counts partition the table" ~count:200
    (QCheck.make gen) (fun rows ->
      let db = Mvcc.create () in
      let txn = Mvcc.begin_txn db in
      let h = Fixtures.handle db txn in
      List.iter
        (fun (pk, grp) ->
          Lsr_core.Handle.row_put h ~table:"t" ~pk:(string_of_int pk)
            [ ("grp", Row.Int grp) ])
        rows;
      let total =
        match Sql.exec h "SELECT COUNT(*) FROM t" with
        | Ok (Executor.Rows { rows = [ (_, row) ]; _ }) -> Row.int_exn row "count"
        | _ -> -1
      in
      let grouped sql =
        match Sql.exec h sql with
        | Ok (Executor.Rows { rows; _ }) ->
          List.fold_left
            (fun acc (_, row) -> acc + Row.int_exn row "count")
            0 rows
        | _ -> -99
      in
      grouped "SELECT COUNT(*) FROM t GROUP BY grp" = total
      && grouped "SELECT COUNT(*) FROM t GROUP BY grp HAVING TRUE" = total)

(* --- Routing through the replicated system ------------------------------------------ *)

let test_sql_run_replicated () =
  let open Lsr_core in
  let sys =
    System.create ~secondaries:2 ~schema:[ ("books", [ "genre" ]) ]
      ~guarantee:Session.Strong_session ()
  in
  let alice = System.connect sys "alice" in
  (match
     Sql.run sys alice
       "INSERT INTO books (pk, title, genre) VALUES ('b1', 'SICP', 'cs')"
   with
  | Ok (Executor.Affected 1) -> ()
  | Ok _ -> Alcotest.fail "unexpected result"
  | Error e -> Alcotest.fail e);
  (* Alice's own session must see the insert (read-your-writes). *)
  (match Sql.run sys alice "SELECT * FROM books WHERE genre = 'cs'" with
  | Ok (Executor.Rows { rows; _ }) -> check_int "visible in session" 1 (List.length rows)
  | Ok (Executor.Affected _ | Executor.Plan _) -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail e);
  (* Another session may still see the stale copy without blocking. *)
  let bob = System.connect sys "bob" in
  (match Sql.run sys bob "SELECT * FROM books" with
  | Ok (Executor.Rows { rows; _ }) ->
    check_bool "bob is lazy (possibly stale)" true (List.length rows <= 1)
  | Ok (Executor.Affected _ | Executor.Plan _) -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail e);
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_explain_plans () =
  with_books (fun h ->
      (match Sql.exec h "EXPLAIN SELECT * FROM books WHERE genre = 'cs' AND price < 50" with
      | Ok (Executor.Plan steps) ->
        check_bool "index access chosen" true
          (List.exists
             (fun s -> s = "access: index lookup books.genre = \"cs\"")
             steps)
      | Ok _ | Error _ -> Alcotest.fail "explain failed");
      (match Sql.exec h "EXPLAIN SELECT * FROM books WHERE price < 50" with
      | Ok (Executor.Plan steps) ->
        check_bool "falls back to scan" true
          (List.mem "access: full scan of books" steps)
      | Ok _ | Error _ -> Alcotest.fail "explain failed");
      (match Sql.exec h "EXPLAIN DELETE FROM books WHERE genre = 'cs'" with
      | Ok (Executor.Plan steps) ->
        check_bool "delete explained" true
          (List.exists (fun s -> s = "delete from books") steps)
      | Ok _ | Error _ -> Alcotest.fail "explain failed");
      (* EXPLAIN does not execute. *)
      (match Sql.exec h "EXPLAIN DELETE FROM books" with
      | Ok (Executor.Plan _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "explain failed");
      check_int "nothing deleted" 4
        (List.length (select_pks h "SELECT * FROM books")))

let test_explain_nested_rejected () =
  match Parser.parse "EXPLAIN EXPLAIN SELECT * FROM t" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested EXPLAIN must be rejected"

let test_run_script_atomic () =
  let open Lsr_core in
  let sys = System.create ~secondaries:1 ~guarantee:Session.Strong_session () in
  let c = System.connect sys "teller" in
  (match
     Sql.run_script sys c
       [
         "INSERT INTO acct (pk, bal) VALUES ('a', 100)";
         "INSERT INTO acct (pk, bal) VALUES ('b', 50)";
       ]
   with
  | Ok [ Executor.Affected 1; Executor.Affected 1 ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "setup script failed");
  (* A transfer is one transaction: both legs or neither. *)
  (match
     Sql.run_script sys c
       [
         "UPDATE acct SET bal = 70 WHERE pk = 'a'";
         "UPDATE acct SET bal = 80 WHERE pk = 'b'";
       ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_int "one commit per script" 2
    (Mvcc.commit_count (System.primary_db sys));
  (* A failing statement aborts the whole script. *)
  (match
     Sql.run_script sys c
       [ "DELETE FROM acct"; "INSERT INTO acct (nope) VALUES (1)" ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "script with bad statement must fail");
  (match Sql.run sys c "SELECT COUNT(*) FROM acct" with
  | Ok (Executor.Rows { rows = [ (_, row) ]; _ }) ->
    check_bool "delete rolled back" true (Row.find row "count" = Some (Row.Int 2))
  | Ok _ | Error _ -> Alcotest.fail "count failed");
  System.pump sys;
  match System.check sys with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_run_script_read_only_routing () =
  let open Lsr_core in
  let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match
     Sql.run_script sys c
       [ "SELECT * FROM t"; "EXPLAIN SELECT * FROM t"; "SELECT COUNT(*) FROM t" ]
   with
  | Ok results -> check_int "three results" 3 (List.length results)
  | Error e -> Alcotest.fail e);
  (* All read-only: no primary commit happened. *)
  check_int "no commits" 0 (Mvcc.commit_count (System.primary_db sys))

(* Scripts commit exactly once per write-bearing script, never for pure
   reads, and the replicated system stays checkable throughout. *)
let prop_run_script_commit_accounting =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (list_size (int_range 1 3) (pair bool (int_range 0 5))))
  in
  QCheck.Test.make ~name:"script commits = write-bearing scripts" ~count:100
    (QCheck.make gen) (fun scripts ->
      let open Lsr_core in
      let sys = System.create ~secondaries:1 ~guarantee:Session.Weak () in
      let c = System.connect sys "c" in
      let expected = ref 0 in
      List.iter
        (fun stmts ->
          let has_write = List.exists (fun (is_write, _) -> is_write) stmts in
          if has_write then incr expected;
          let sql =
            List.map
              (fun (is_write, k) ->
                if is_write then
                  Printf.sprintf "INSERT INTO t (pk, v) VALUES ('k%d', %d)" k k
                else Printf.sprintf "SELECT * FROM t WHERE v = %d" k)
              stmts
          in
          match Sql.run_script sys c sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        scripts;
      System.pump sys;
      Mvcc.commit_count (System.primary_db sys) = !expected
      && System.check sys = Ok ())

let test_sql_run_syntax_error () =
  let open Lsr_core in
  let sys = System.create ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  match Sql.run sys c "SELEC nonsense" with
  | Error msg ->
    check_bool "labelled as syntax error" true
      (String.length msg >= 12 && String.sub msg 0 12 = "syntax error")
  | Ok _ -> Alcotest.fail "expected an error"

let test_sql_run_semantic_error_aborts () =
  let open Lsr_core in
  let sys = System.create ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match Sql.run sys c "INSERT INTO t (a) VALUES (1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing pk must fail");
  (* Nothing was committed at the primary. *)
  check_int "no state installed" 0 (Mvcc.commit_count (System.primary_db sys))

(* The typed error API distinguishes error classes structurally and carries
   the offending statement, so callers (the static analyzer, the bench
   harness) never have to string-match messages. *)
let test_sql_typed_errors () =
  let open Lsr_core in
  let sys = System.create ~guarantee:Session.Weak () in
  let c = System.connect sys "c" in
  (match Sql.run_typed sys c "SELEC nonsense" with
  | Error (Sql.Syntax_error { statement; message }) ->
    Alcotest.(check string) "offending statement" "SELEC nonsense" statement;
    check_bool "has a message" true (String.length message > 0)
  | Error _ -> Alcotest.fail "expected Syntax_error"
  | Ok _ -> Alcotest.fail "expected an error");
  (match Sql.run_typed sys c "INSERT INTO t (a) VALUES (1)" with
  | Error (Sql.Semantic_error _) -> ()
  | Error _ -> Alcotest.fail "expected Semantic_error"
  | Ok _ -> Alcotest.fail "missing pk must fail");
  (* parse_script stops at the first malformed statement and names it. *)
  match Sql.parse_script [ "SELECT * FROM t"; "UPDATE t SET" ] with
  | Error (Sql.Syntax_error { statement; _ }) ->
    Alcotest.(check string) "script offender" "UPDATE t SET" statement;
    check_bool "legacy wrapper prefixes the class" true
      (let msg =
         Sql.error_message
           (Sql.Syntax_error { statement; message = "boom" })
       in
       String.length msg >= 12 && String.sub msg 0 12 = "syntax error")
  | Error _ -> Alcotest.fail "expected Syntax_error from parse_script"
  | Ok _ -> Alcotest.fail "malformed script must not parse"

let () =
  Alcotest.run "lsr_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "negative numbers" `Quick test_lexer_negative_numbers;
          Alcotest.test_case "!= alias" `Quick test_lexer_bang_equals;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select star" `Quick test_parse_select_star;
          Alcotest.test_case "select full" `Quick test_parse_select_full;
          Alcotest.test_case "insert" `Quick test_parse_insert;
          Alcotest.test_case "update/delete" `Quick test_parse_update_delete;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "aggregate offender reported" `Quick
            test_parse_aggregate_offender;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select where" `Quick test_exec_select_where;
          Alcotest.test_case "null semantics" `Quick test_exec_null_semantics;
          Alcotest.test_case "order/limit" `Quick test_exec_order_limit;
          Alcotest.test_case "projection" `Quick test_exec_projection;
          Alcotest.test_case "update/delete counts" `Quick
            test_exec_update_delete_counts;
          Alcotest.test_case "set NULL removes" `Quick test_exec_update_null_removes;
          Alcotest.test_case "insert replaces" `Quick test_exec_insert_replaces;
          Alcotest.test_case "int pk" `Quick test_exec_int_pk;
          Alcotest.test_case "missing pk rejected" `Quick
            test_exec_missing_pk_rejected;
          Alcotest.test_case "index cross-type equality" `Quick
            test_exec_index_cross_type_equality;
          Alcotest.test_case "index randomized identity" `Quick
            test_exec_index_randomized_identity;
          Alcotest.test_case "index agrees with scan" `Quick
            test_exec_index_agrees_with_scan;
          Alcotest.test_case "aggregates" `Quick test_exec_aggregates;
          Alcotest.test_case "aggregate combo" `Quick test_exec_aggregate_combo;
          Alcotest.test_case "empty aggregate is NULL" `Quick
            test_exec_aggregate_empty_is_null;
          Alcotest.test_case "aggregate + order by rejected" `Quick
            test_exec_aggregate_order_by_rejected;
          Alcotest.test_case "group by" `Quick test_exec_group_by;
          Alcotest.test_case "group by + where/limit" `Quick
            test_exec_group_by_with_where_and_limit;
          Alcotest.test_case "group by requires aggregates" `Quick
            test_group_by_requires_aggregates;
          Alcotest.test_case "having" `Quick test_exec_having;
          Alcotest.test_case "having requires group by" `Quick
            test_having_requires_group_by;
          QCheck_alcotest.to_alcotest prop_group_by_partitions;
          QCheck_alcotest.to_alcotest prop_executor_index_plan_sound;
          Alcotest.test_case "render" `Quick test_exec_render;
        ] );
      ( "replicated",
        [
          Alcotest.test_case "run through system" `Quick test_sql_run_replicated;
          Alcotest.test_case "syntax error" `Quick test_sql_run_syntax_error;
          Alcotest.test_case "semantic error aborts" `Quick
            test_sql_run_semantic_error_aborts;
          Alcotest.test_case "typed error API" `Quick test_sql_typed_errors;
          Alcotest.test_case "explain plans" `Quick test_explain_plans;
          Alcotest.test_case "nested explain rejected" `Quick
            test_explain_nested_rejected;
          Alcotest.test_case "run_script atomic" `Quick test_run_script_atomic;
          Alcotest.test_case "run_script read-only routing" `Quick
            test_run_script_read_only_routing;
          QCheck_alcotest.to_alcotest prop_run_script_commit_accounting;
        ] );
    ]
