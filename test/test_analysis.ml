(* Tests for the static SI-anomaly analyzer (lib/analysis), in four tiers:

   1. units for the symbolic footprint extraction, the static dependency
      graph and the session-guarantee pass;
   2. the soundness cross-validation: seeded, randomly interleaved
      executions of the built-in workloads against raw MVCC, where every
      serialization cycle the dynamic checker finds must be covered by a
      statically flagged dangerous structure — and the workload analyzed
      clean must produce no cycle at all;
   3. the session cross-validation: a replicated-system run under weak SI
      whose data-dependent in-session inversions must all be predicted by
      the session pass;
   4. the planner (Plan) and its bidirectional cross-validation:
      the inferred minimal per-template assignment must replay clean through
      the simulator's full checker battery (fence audit included), and any
      strictly weaker assignment at a flagged template must reproduce the
      predicted inversion on the same seeded run. *)

open Lsr_storage
open Lsr_core
open Lsr_analysis
open Lsr_serializability
module Ast = Lsr_sql.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let builtin name = Option.get (Builtin.find name)

let plan_assignment (plan : Plan.t) name =
  List.find_opt (fun (a : Plan.assignment) -> a.template = name) plan.assignments

let plan_fence plan name =
  Option.bind (plan_assignment plan name) (fun a -> a.Plan.fence)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Symbolic footprints ----------------------------------------------------- *)

let footprint_of sql =
  match Lsr_sql.Sql.parse_script [ sql ] with
  | Ok [ stmt ] -> Symbolic.statement_footprint stmt
  | Ok _ -> Alcotest.fail "expected one statement"
  | Error e -> Alcotest.fail (Lsr_sql.Sql.error_message e)

let test_symbolic_regions () =
  let fp = footprint_of "SELECT * FROM books WHERE pk = 'b1'" in
  (match fp.Symbolic.reads with
  | [ { Symbolic.table = "books"; region = Symbolic.Exact (Symbolic.Const "b1") } ]
    -> ()
  | _ -> Alcotest.fail "pk-equality must be an exact constant read");
  check_int "select writes nothing" 0 (List.length fp.Symbolic.writes);
  let fp = footprint_of "SELECT * FROM books WHERE pk = ':item'" in
  (match fp.Symbolic.reads with
  | [ { Symbolic.region = Symbolic.Exact (Symbolic.Param "item"); _ } ] -> ()
  | _ -> Alcotest.fail "':item' must be a parameter key");
  let fp = footprint_of "SELECT * FROM books WHERE genre = 'scifi'" in
  (match fp.Symbolic.reads with
  | [ { Symbolic.region = Symbolic.Range _; _ } ] -> ()
  | _ -> Alcotest.fail "non-pk condition must be a predicate read");
  let fp = footprint_of "SELECT * FROM books" in
  (match fp.Symbolic.reads with
  | [ { Symbolic.region = Symbolic.Scan; _ } ] -> ()
  | _ -> Alcotest.fail "WHERE-less select must be a scan");
  let fp = footprint_of "UPDATE books SET stock = 3 WHERE pk = 'b1'" in
  check_int "update reads its match" 1 (List.length fp.Symbolic.reads);
  (match fp.Symbolic.writes with
  | [ { Symbolic.region = Symbolic.Exact (Symbolic.Const "b1"); _ } ] -> ()
  | _ -> Alcotest.fail "pk-equality update writes the exact key")

let test_symbolic_overlap () =
  let acc table region = { Symbolic.table; region } in
  let exact k = Symbolic.Exact (Symbolic.Const k) in
  check_bool "same constant key overlaps" true
    (Symbolic.may_overlap (acc "t" (exact "a")) (acc "t" (exact "a")));
  check_bool "distinct constant keys are disjoint" false
    (Symbolic.may_overlap (acc "t" (exact "a")) (acc "t" (exact "b")));
  check_bool "different tables are disjoint" false
    (Symbolic.may_overlap (acc "t" Symbolic.Scan) (acc "u" Symbolic.Scan));
  check_bool "parameter may be any key" true
    (Symbolic.may_overlap
       (acc "t" (Symbolic.Exact (Symbolic.Param "p")))
       (acc "t" (exact "a")));
  check_bool "scan overlaps everything in the table" true
    (Symbolic.may_overlap (acc "t" Symbolic.Scan) (acc "t" (exact "a")))

let test_template_params_and_instantiate () =
  let t =
    Template.of_sql_exn ~name:"t"
      [
        "SELECT stock FROM books WHERE pk = ':item'";
        "UPDATE books SET stock = ':qty' WHERE pk = ':item'";
      ]
  in
  Alcotest.(check (list string))
    "params in first-occurrence order" [ "item"; "qty" ] (Template.params t);
  check_bool "update template is not read-only" false t.Template.read_only;
  let stmts =
    Template.instantiate t
      [ ("item", Ast.Text "b1"); ("qty", Ast.Int 7) ]
  in
  check_int "both statements instantiated" 2 (List.length stmts);
  (* Unbound parameters must be loud, not silently passed through. *)
  (try
     ignore (Template.instantiate t [ ("item", Ast.Text "b1") ]);
     Alcotest.fail "unbound parameter must raise"
   with Invalid_argument _ -> ())

(* --- Static dependency graph -------------------------------------------------- *)

let test_sdg_write_skew_flagged () =
  let report = Analyzer.run ~workload:"write_skew" (builtin "write_skew") in
  let ids = Analyzer.dangerous_ids report in
  check_bool "x>y>x structure found" true
    (List.mem
       "write_skew:check_then_sign_off_x>check_then_sign_off_y>check_then_sign_off_x"
       ids);
  check_bool "y>x>y structure found" true
    (List.mem
       "write_skew:check_then_sign_off_y>check_then_sign_off_x>check_then_sign_off_y"
       ids);
  check_int "and nothing else" 2 (List.length ids);
  (* The explanation names the actual tables and keys. *)
  let d = List.hd report.Analyzer.dangerous in
  let text = Sdg.explain d in
  check_bool "explanation names the duty table" true (contains text "duty");
  check_bool "explanation names key x" true (contains text "duty[pk='x']");
  check_bool "explanation names key y" true (contains text "duty[pk='y']")

let test_sdg_disjoint_clean () =
  let report = Analyzer.run ~workload:"disjoint" (builtin "disjoint") in
  check_int "no dangerous structures" 0 (List.length report.Analyzer.dangerous);
  (* The graph is not empty — readers anti-depend on the writers — but the
     self rw edges of the read-modify-write gauges are defused by
     first-committer-wins. *)
  check_bool "rw edges exist" true
    (List.exists (fun e -> e.Sdg.dep = Sdg.Rw) report.Analyzer.sdg.Sdg.edges);
  let self_rw =
    List.find
      (fun e ->
        e.Sdg.dep = Sdg.Rw && e.Sdg.src = "write_gauge_a"
        && e.Sdg.dst = "write_gauge_a")
      report.Analyzer.sdg.Sdg.edges
  in
  check_bool "self rw edge of a read-modify-write is not vulnerable" false
    self_rw.Sdg.vulnerable

let test_sdg_tpcw_pivots () =
  let report = Analyzer.run ~workload:"tpcw" (builtin "tpcw") in
  check_bool "tpcw has dangerous structures" true
    (report.Analyzer.dangerous <> []);
  (* Every structure pivots on the predicate-writing template: exact-key
     read-modify-writes (buy_confirm, admin_restock) are defused, so the
     genre reprice — which reads rows it does not write back — is the only
     template with both vulnerable rw edges. *)
  List.iter
    (fun d ->
      check_string "pivot is the genre reprice" "admin_reprice_genre"
        d.Sdg.rw_in.Sdg.dst)
    report.Analyzer.dangerous;
  let buy_self =
    List.find
      (fun e ->
        e.Sdg.dep = Sdg.Rw && e.Sdg.src = "buy_confirm"
        && e.Sdg.dst = "buy_confirm")
      report.Analyzer.sdg.Sdg.edges
  in
  check_bool "buy_confirm rereads only the key it writes" false
    buy_self.Sdg.vulnerable

let test_session_pass_tpcw () =
  let report = Analyzer.run ~workload:"tpcw" (builtin "tpcw") in
  let flags = report.Analyzer.session_flags in
  let has kind earlier later =
    List.exists
      (fun (f : Session_pass.flag) ->
        f.Session_pass.kind = kind
        && f.Session_pass.earlier = earlier
        && f.Session_pass.later = later)
      flags
  in
  check_bool "buying then checking the order needs PCSI" true
    (has Session_pass.Update_then_read "buy_confirm" "order_status");
  check_bool "buying then browsing the book needs PCSI" true
    (has Session_pass.Update_then_read "buy_confirm" "product_detail");
  check_bool "two browses across migration need strong session SI" true
    (has Session_pass.Read_then_read "product_detail" "best_sellers");
  check_string "the workload as a whole needs strong session SI"
    (Session.guarantee_name Session.Strong_session)
    (Session.guarantee_name (Session_pass.needed_guarantee flags));
  check_int "nothing is left unprevented at strong session SI" 0
    (List.length
       (Session_pass.unprevented Session.Strong_session flags));
  check_bool "PCSI alone leaves the read-then-read pairs" true
    (Session_pass.unprevented Session.Prefix_consistent flags
    |> List.for_all (fun (f : Session_pass.flag) ->
           f.Session_pass.kind = Session_pass.Read_then_read))

let test_report_json_roundtrip () =
  let report = Analyzer.run ~workload:"tpcw" (builtin "tpcw") in
  let text = Lsr_obs.Json.to_string (Analyzer.to_json report) in
  match Lsr_obs.Json.parse text with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok json ->
    (match Lsr_obs.Json.member "workload" json with
    | Some (Lsr_obs.Json.Str "tpcw") -> ()
    | _ -> Alcotest.fail "workload field survives the round trip")

(* --- Soundness cross-validation against the dynamic checker ------------------- *)

(* Randomly interleaved executions over raw MVCC: a scheduler begins up to
   three concurrent transactions (each executing one instantiated template
   through the SQL executor, reads reported by the handle) and commits them
   in random order. First-committer-wins aborts are dropped, matching the
   committed-transactions-only serialization graph. *)

type live = {
  txn : Mvcc.txn;
  reads : History.reads;
  template : Template.t;
  first_op : int;
  snapshot : Timestamp.t;
}

(* A handle on [txn] and the buffer its reads land in. *)
let recording_handle db txn =
  let h = Fixtures.handle db txn in
  (h, Handle.reads h)

let exec_all handle stmts =
  List.iter
    (fun s -> ignore (Lsr_sql.Executor.execute_exn handle s))
    stmts

let finish db h mapping (l : live) =
  let read_keys, read_values = History.recorded ~key:Fun.id l.reads in
  if l.template.Template.read_only then begin
    Mvcc.end_read db l.txn;
    let id = History.fresh_id h in
    History.add h
      {
        History.id = id;
        session = "harness";
        kind = History.Read_only;
        site = "primary";
        first_op = l.first_op;
        finished = History.tick h;
        snapshot = l.snapshot;
        commit_ts = None;
        read_keys;
        read_values;
        writes = [];
        fence = None;
      };
    mapping := (id, l.template.Template.name) :: !mapping
  end
  else
    let writes = Mvcc.pending_writes l.txn in
    match Mvcc.commit db l.txn with
    | Mvcc.Aborted _ -> ()
    | Mvcc.Committed cts ->
      let id = History.fresh_id h in
      History.add h
        {
          History.id = id;
          session = "harness";
          kind = History.Update;
          site = "primary";
          first_op = l.first_op;
          finished = History.tick h;
          snapshot = l.snapshot;
          commit_ts = Some cts;
          read_keys;
          read_values;
          writes;
          fence = None;
        };
      mapping := (id, l.template.Template.name) :: !mapping

(* One seeded run; returns the history and the id -> template-name map. *)
let run_schedule ~seed ~init ~templates ~bind =
  let rng = Lsr_sim.Rng.create seed in
  let db = Mvcc.create () in
  let h = History.create () in
  let mapping = ref [] in
  (* Seed data, recorded like any other committed update so version chains
     start from a real writer. *)
  let first_op = History.tick h in
  let snapshot = Mvcc.latest_commit_ts db in
  let txn = Mvcc.begin_txn db in
  let handle, reads = recording_handle db txn in
  exec_all handle init;
  finish db h mapping
    {
      txn;
      reads;
      template =
        { Template.name = "init"; statements = []; read_only = false;
          footprint = Symbolic.empty };
      first_op;
      snapshot;
    };
  let live = ref [] in
  let fresh = ref 0 in
  for _round = 1 to 60 do
    let begin_new =
      !live = []
      || (List.length !live < 3 && Lsr_sim.Rng.bernoulli rng ~p:0.6)
    in
    if begin_new then begin
      let t =
        List.nth templates
          (Lsr_sim.Rng.uniform rng ~lo:0 ~hi:(List.length templates - 1))
      in
      incr fresh;
      let binding = bind rng t !fresh in
      let first_op = History.tick h in
      let snapshot = Mvcc.latest_commit_ts db in
      let txn = Mvcc.begin_txn db in
      let handle, reads = recording_handle db txn in
      exec_all handle (Template.instantiate t binding);
      live := { txn; reads; template = t; first_op; snapshot } :: !live
    end
    else begin
      let i = Lsr_sim.Rng.uniform rng ~lo:0 ~hi:(List.length !live - 1) in
      let l = List.nth !live i in
      live := List.filteri (fun j _ -> j <> i) !live;
      finish db h mapping l
    end
  done;
  List.iter (finish db h mapping) !live;
  (h, !mapping)

(* Parameter domains small enough to collide. The order pk is always fresh
   (re-inserting an existing pk is just an overwrite, but distinct orders
   match the workload's intent). *)
let bind_value rng fresh = function
  | "item" -> Ast.Text (Printf.sprintf "b%d" (Lsr_sim.Rng.uniform rng ~lo:1 ~hi:3))
  | "genre" -> Ast.Text (Printf.sprintf "g%d" (Lsr_sim.Rng.uniform rng ~lo:1 ~hi:2))
  | "cust" -> Ast.Text (Printf.sprintf "c%d" (Lsr_sim.Rng.uniform rng ~lo:1 ~hi:2))
  | "order" -> Ast.Text (Printf.sprintf "o%d" fresh)
  | "new_stock" | "qty" -> Ast.Int (Lsr_sim.Rng.uniform rng ~lo:0 ~hi:50)
  | "price" -> Ast.Int (Lsr_sim.Rng.uniform rng ~lo:5 ~hi:40)
  | _ -> Ast.Text (Printf.sprintf "v%d" (Lsr_sim.Rng.uniform rng ~lo:0 ~hi:9))

let default_bind rng t fresh =
  List.map (fun p -> (p, bind_value rng fresh p)) (Template.params t)

let tpcw_init =
  List.map
    (fun (pk, genre) ->
      Printf.sprintf
        "INSERT INTO books (pk, title, genre, price, stock, sales) VALUES \
         ('%s', 'title %s', '%s', 10, 20, 100)"
        pk pk genre)
    [ ("b1", "g1"); ("b2", "g1"); ("b3", "g2") ]

let write_skew_init =
  [
    "INSERT INTO duty (pk, on_call) VALUES ('x', TRUE)";
    "INSERT INTO duty (pk, on_call) VALUES ('y', TRUE)";
  ]

let disjoint_init =
  [
    "INSERT INTO metrics (pk, value) VALUES ('a', 0)";
    "INSERT INTO metrics (pk, value) VALUES ('b', 0)";
  ]

let parse_init sqls =
  match Lsr_sql.Sql.parse_script sqls with
  | Ok stmts -> stmts
  | Error e -> Alcotest.fail (Lsr_sql.Sql.error_message e)

(* Run [seeds] seeded schedules of a workload; assert every dynamic cycle is
   covered by a static dangerous structure among exactly the participating
   templates; return how many runs had a cycle. *)
let cross_validate ~workload ~init ~templates ~seeds =
  let report = Analyzer.run ~workload templates in
  let init = parse_init init in
  let cycles = ref 0 in
  for seed = 1 to seeds do
    let h, mapping = run_schedule ~seed ~init ~templates ~bind:default_bind in
    match Mvsg.serialization_cycle h with
    | None -> ()
    | Some cycle ->
      incr cycles;
      let names =
        List.map
          (fun id ->
            match List.assoc_opt id mapping with
            | Some name -> name
            | None ->
              Alcotest.failf "%s seed %d: cycle names unknown txn %d" workload
                seed id)
          cycle
      in
      check_bool
        (Printf.sprintf
           "%s seed %d: dynamic cycle through {%s} is covered by a static \
            dangerous structure"
           workload seed
           (String.concat ", " (List.sort_uniq compare names)))
        true
        (Analyzer.covers report (List.sort_uniq compare names))
  done;
  !cycles

let test_cross_validate_write_skew () =
  let cycles =
    cross_validate ~workload:"write_skew" ~init:write_skew_init
      ~templates:(builtin "write_skew") ~seeds:25
  in
  check_bool "the harness actually produced write-skew cycles" true (cycles > 0)

let test_cross_validate_tpcw () =
  let cycles =
    cross_validate ~workload:"tpcw" ~init:tpcw_init
      ~templates:(builtin "tpcw") ~seeds:25
  in
  (* Non-vacuity: concurrent genre reprices (and reprice vs restock/buy)
     produce real cycles under these seeds. *)
  check_bool "the tpcw harness produced at least one cycle" true (cycles > 0)

let test_cross_validate_disjoint () =
  let cycles =
    cross_validate ~workload:"disjoint" ~init:disjoint_init
      ~templates:(builtin "disjoint") ~seeds:25
  in
  (* The static verdict is "serializable under SI"; by soundness of the
     analysis the dynamic checker must agree on every run. *)
  check_int "statically clean workload never produces a cycle" 0 cycles

(* --- Session cross-validation on the replicated system ------------------------ *)

(* Execute tpcw templates through the real replicated system under weak SI
   (updates at the primary, reads at the session's possibly-stale
   secondary), with no refresh between a purchase and the session's own
   re-reads. Every data-dependent in-session inversion the dynamic checker
   reports must be predicted by a session-pass flag. *)
let test_session_cross_validation () =
  let report = Analyzer.run ~workload:"tpcw" (builtin "tpcw") in
  let templates = builtin "tpcw" in
  let find name =
    List.find (fun (t : Template.t) -> t.Template.name = name) templates
  in
  let sys = System.create ~secondaries:2 ~guarantee:Session.Weak () in
  let client = System.connect sys "shopper" in
  let executed = ref [] in
  let run_template name binding =
    let t = find name in
    let stmts = Template.instantiate t binding in
    if t.Template.read_only then
      System.read sys client (fun h -> exec_all h stmts)
    else (
      match System.update sys client (fun h -> exec_all h stmts) with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "%s aborted" name);
    executed := name :: !executed
  in
  (* Seed the store (one update transaction). *)
  (match
     System.update sys client (fun h ->
         exec_all h (parse_init tpcw_init))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "init aborted");
  executed := "init" :: !executed;
  System.pump sys;
  (* The paper's bookstore session: buy, then immediately check the order
     and re-read the book at the (stale) secondary. *)
  run_template "product_detail" [ ("item", Ast.Text "b1") ];
  run_template "buy_confirm"
    [
      ("item", Ast.Text "b1"); ("new_stock", Ast.Int 19);
      ("order", Ast.Text "o1"); ("cust", Ast.Text "c1");
    ];
  run_template "order_status" [ ("cust", Ast.Text "c1") ];
  run_template "product_detail" [ ("item", Ast.Text "b1") ];
  System.pump sys;
  (* Each update/read appends exactly one history record in execution
     order, so zipping aligns ids with template names. *)
  let txns = History.transactions (System.history sys) in
  let order = List.rev !executed in
  check_int "one history record per executed transaction"
    (List.length order) (List.length txns);
  (* Transactions are in completion order, which here equals execution
     order (each call runs to completion before the next), so zip directly. *)
  let name_of =
    List.map2 (fun name (t : History.txn) -> (t.History.id, name)) order txns
  in
  (* Replayed as a strong-session-SI run, every in-session inversion is an
     alert naming its witness. *)
  let inversions =
    Watchdog.replay ~clock:(System.commit_clock sys)
      ~guarantee:Session.Strong_session (System.history sys)
    |> Watchdog.alerts |> Fixtures.alert_pairs
    |> List.map (fun (earlier, later) ->
           let txn id = List.find (fun (t : History.txn) -> t.id = id) txns in
           (txn earlier, txn later))
  in
  let data_dependent =
    List.filter
      (fun ((earlier : History.txn), (later : History.txn)) ->
        earlier.History.kind = History.Update
        && Array.exists
             (fun k ->
               List.exists
                 (fun { Lsr_storage.Wal.key; _ } -> key = k)
                 earlier.History.writes)
             later.History.read_keys)
      inversions
  in
  check_bool "the stale session actually observed an inversion" true
    (data_dependent <> []);
  List.iter
    (fun ((earlier : History.txn), (later : History.txn)) ->
      let earlier_name = List.assoc earlier.History.id name_of in
      let later_name = List.assoc later.History.id name_of in
      check_bool
        (Printf.sprintf
           "inversion %s -> %s is predicted by an update-then-read flag"
           earlier_name later_name)
        true
        (List.exists
           (fun (f : Session_pass.flag) ->
             f.Session_pass.kind = Session_pass.Update_then_read
             && f.Session_pass.earlier = earlier_name
             && f.Session_pass.later = later_name)
           report.Analyzer.session_flags))
    data_dependent

(* --- Duplicate template names -------------------------------------------------- *)

let test_duplicate_template_rejected () =
  let t1 = Template.of_sql_exn ~name:"dup" [ "SELECT * FROM t WHERE pk = 'a'" ] in
  let t2 = Template.of_sql_exn ~name:"dup" [ "SELECT * FROM t WHERE pk = 'b'" ] in
  (try
     ignore (Sdg.build [ t1; t2 ]);
     Alcotest.fail "Sdg.build must reject duplicate template names"
   with Template.Duplicate_template name ->
     check_string "the offending name is reported" "dup" name);
  (try
     ignore (Plan.infer ~workload:"dup" [ t1; t2 ]);
     Alcotest.fail "Plan.infer must reject duplicate template names"
   with Template.Duplicate_template _ -> ());
  (* Distinct names pass the same check. *)
  Template.check_distinct [ t1; { t2 with Template.name = "dup2" } ]

(* --- Region-overlap edge cases in the SDG -------------------------------------- *)

let edges_between sdg ~src ~dst =
  List.filter (fun e -> e.Sdg.src = src && e.Sdg.dst = dst) sdg.Sdg.edges

let test_sdg_overlap_edges () =
  let t = Template.of_sql_exn in
  (* Distinct exact constants are the one provably-disjoint case: no edge
     in either direction. *)
  let reader_a = t ~name:"reader_a" [ "SELECT v FROM g WHERE pk = 'a'" ] in
  let writer_b = t ~name:"writer_b" [ "UPDATE g SET v = 1 WHERE pk = 'b'" ] in
  let sdg = Sdg.build [ reader_a; writer_b ] in
  check_int "exact 'a' vs exact 'b': no edges at all" 0
    (List.length (edges_between sdg ~src:"reader_a" ~dst:"writer_b")
    + List.length (edges_between sdg ~src:"writer_b" ~dst:"reader_a"));
  (* A scan overlaps every region of its table — and nothing elsewhere. *)
  let scanner = t ~name:"scanner" [ "SELECT * FROM g" ] in
  let other = t ~name:"other_table" [ "UPDATE h SET v = 2 WHERE pk = 'b'" ] in
  let sdg = Sdg.build [ scanner; writer_b; other ] in
  check_bool "scan anti-depends on a same-table exact writer" true
    (List.exists
       (fun e -> e.Sdg.dep = Sdg.Rw)
       (edges_between sdg ~src:"scanner" ~dst:"writer_b"));
  check_int "scan vs another table: nothing" 0
    (List.length (edges_between sdg ~src:"scanner" ~dst:"other_table"));
  (* Predicates on disjoint constants ('g1' vs 'g2') would never collide at
     run time, but the symbolic layer keeps them conservatively overlapping:
     the edge must be present (soundness over precision). *)
  let genre_a = t ~name:"read_g1" [ "SELECT * FROM g WHERE genre = 'g1'" ] in
  let genre_b = t ~name:"write_g2" [ "UPDATE g SET v = 3 WHERE genre = 'g2'" ] in
  let sdg = Sdg.build [ genre_a; genre_b ] in
  check_bool "adjacent non-overlapping predicates keep a conservative rw edge"
    true
    (List.exists
       (fun e -> e.Sdg.dep = Sdg.Rw)
       (edges_between sdg ~src:"read_g1" ~dst:"write_g2"));
  (* Parameter aliasing: the same ':k' in two templates can bind to
     different keys (edge stays, vulnerable), while within one template a
     parameter binds once (read-modify-write of ':k' is defused). *)
  let p_reader = t ~name:"p_reader" [ "SELECT v FROM g WHERE pk = ':k'" ] in
  let p_writer = t ~name:"p_writer" [ "UPDATE g SET v = 4 WHERE pk = ':k'" ] in
  let sdg = Sdg.build [ p_reader; p_writer ] in
  let rw =
    List.find
      (fun e -> e.Sdg.dep = Sdg.Rw)
      (edges_between sdg ~src:"p_reader" ~dst:"p_writer")
  in
  check_bool "cross-template ':k' aliasing keeps the rw edge vulnerable" true
    rw.Sdg.vulnerable;
  let self =
    List.find
      (fun e -> e.Sdg.dep = Sdg.Rw)
      (edges_between sdg ~src:"p_writer" ~dst:"p_writer")
  in
  check_bool "within one template ':k' binds once: self rw edge defused" false
    self.Sdg.vulnerable;
  (* An empty read set produces no outgoing rw edge: blind writers cannot
     pivot a dangerous structure. *)
  let blind = t ~name:"blind" [ "INSERT INTO g (pk, v) VALUES (':m', 1)" ] in
  let sdg = Sdg.build [ blind; scanner ] in
  check_bool "a blind writer has no outgoing rw edge" true
    (List.for_all
       (fun e -> not (e.Sdg.src = "blind" && e.Sdg.dep = Sdg.Rw))
       sdg.Sdg.edges);
  (* Edge lists come out canonically sorted, whatever the template order. *)
  let dep_rank = function Sdg.Ww -> 0 | Wr -> 1 | Rw -> 2 in
  let key e = (e.Sdg.src, e.Sdg.dst, dep_rank e.Sdg.dep) in
  let report = Analyzer.run ~workload:"tpcw" (builtin "tpcw") in
  let keys = List.map key report.Analyzer.sdg.Sdg.edges in
  check_bool "tpcw edges sorted by (src, dst, dep)" true
    (keys = List.sort compare keys)

(* --- Planner: minimal assignments ---------------------------------------------- *)

let guarantee_eq = Session.guarantee_name

let test_plan_fence_mix () =
  let plan = Plan.infer ~workload:"fence_mix" (Builtin.fence_mix ()) in
  let assignment name =
    match plan_assignment plan name with
    | Some a -> a
    | None -> Alcotest.failf "no assignment for %s" name
  in
  let inbox = assignment "read_inbox" in
  check_string "read_inbox needs strong session"
    (guarantee_eq Session.Strong_session)
    (guarantee_eq inbox.Plan.level);
  check_bool "read_inbox is Session_seq-fenced" true
    (inbox.Plan.fence = Some Session.Session_seq);
  check_bool "its why names the racing update" true
    (contains inbox.Plan.why "post_message");
  List.iter
    (fun name ->
      let a = assignment name in
      check_string (name ^ " stays weak") (guarantee_eq Session.Weak)
        (guarantee_eq a.Plan.level);
      check_bool (name ^ " is unfenced") true (a.Plan.fence = None))
    [ "read_dashboard"; "read_archive"; "post_message" ];
  check_int "mixed plan cost" 2 (Plan.mixed_cost plan);
  check_int "uniform cost is three fenced readers" 6 (Plan.uniform_cost plan);
  check_int "no residual write skew" 0 (List.length plan.Plan.residual)

let test_plan_tpcw () =
  let plan = Plan.infer ~workload:"tpcw" (builtin "tpcw") in
  (* Every tpcw reader is inversion-prone, so the mixed plan degenerates to
     the uniform one — the planner only wins when some reader is clean. *)
  check_int "tpcw mixed cost = uniform cost" (Plan.uniform_cost plan)
    (Plan.mixed_cost plan);
  check_int "write skew stays residual (cannot be fenced away)" 12
    (List.length plan.Plan.residual)

let test_plan_json_deterministic () =
  let plan = Plan.infer ~workload:"fence_mix" (Builtin.fence_mix ()) in
  let json = Plan.to_json plan in
  let text = Lsr_obs.Json.to_string json in
  (match Lsr_obs.Json.parse text with
  | Error e -> Alcotest.failf "plan JSON does not parse: %s" e
  | Ok _ -> ());
  check_string "plan JSON keys are canonical (sort_keys is a fixpoint)" text
    (Lsr_obs.Json.to_string (Lsr_obs.Json.sort_keys json));
  let r = Analyzer.run ~workload:"fence_mix" (Builtin.fence_mix ()) in
  let rj = Analyzer.to_json r in
  check_string "analyzer JSON keys are canonical too"
    (Lsr_obs.Json.to_string rj)
    (Lsr_obs.Json.to_string (Lsr_obs.Json.sort_keys rj))

(* --- Bidirectional cross-validation of the plan -------------------------------- *)

module Sim = Lsr_experiments.Sim_system

(* A validation-sized simulator run: small, history recording on, reads
   migrating between secondaries (the read-then-read inversions the
   Strong_session flags predict need migration to manifest), and jittered
   propagation deliveries — with zero jitter both secondaries apply each
   batch at the same instant and stay in lockstep, so a migrated read can
   never land on a staler site and the read-then-read anomaly is
   structurally impossible. *)
let sim_outcome ~guarantee ~fence ~seed =
  let params =
    {
      Lsr_workload.Params.default with
      Lsr_workload.Params.num_secondaries = 2;
      clients_per_secondary = 8;
      propagation_jitter = 20.;
      warmup = 20.;
      duration = 170.;
    }
  in
  Sim.run
    {
      (Sim.config params guarantee ~seed) with
      Sim.record_history = true;
      migrate_prob = 0.3;
      fence;
    }

(* The simulator's clients execute exactly the txn_gen template pair, so
   its plan can be replayed and refuted against the real system. *)
let test_plan_cross_validation_sim () =
  let plan = Plan.infer ~workload:"txn_gen" (builtin "txn_gen") in
  let fence =
    match plan_fence plan "txn_gen_read_only" with
    | Some f -> f
    | None -> Alcotest.fail "the plan must fence the inversion-prone reader"
  in
  check_bool "the static realization is a Session_seq fence" true
    (fence = Session.Session_seq);
  (* Forward: the minimal assignment replays clean through the full checker
     battery — weak-SI audit, inversion checks at the plan's uniform target
     level, completeness, and the per-read fence audit. *)
  let minimal = sim_outcome ~guarantee:Session.Weak ~fence:(Sim.All_reads fence) ~seed:42 in
  Alcotest.(check (list string))
    "minimal plan: checker battery clean" [] minimal.Sim.check_errors;
  check_bool "fences were actually exercised" true (minimal.Sim.fenced_reads > 0);
  let report = Option.get minimal.Sim.check_report in
  check_bool "the fenced-Weak run satisfies the uniform target level" true
    (Fixtures.satisfies plan.Plan.uniform report);
  check_int "every fence claim honoured" 0 report.Watchdog.fence_failures;
  (* Reverse, rung 0: dropping the fence (Weak assignment at the flagged
     template) must reproduce the update-then-read inversion the
     Session_pass predicted. *)
  let weak = sim_outcome ~guarantee:Session.Weak ~fence:Sim.No_fence ~seed:42 in
  Alcotest.(check (list string))
    "the weak run still satisfies its own (weak) target" []
    weak.Sim.check_errors;
  let wreport = Option.get weak.Sim.check_report in
  check_bool "unfenced run violates the reader's needed level" false
    (Fixtures.satisfies Session.Strong_session wreport);
  check_bool "the predicted update-then-read inversion manifests" true
    (wreport.Watchdog.v_inversions_after_update > 0);
  (* Reverse, rung 1: PCSI (one step below the needed Strong_session)
     prevents update-then-read but the read-then-read flag — which is what
     made the plan pick Strong_session — still manifests under migration. *)
  let pcsi =
    sim_outcome ~guarantee:Session.Prefix_consistent ~fence:Sim.No_fence ~seed:42
  in
  Alcotest.(check (list string))
    "the PCSI run satisfies PCSI" [] pcsi.Sim.check_errors;
  let preport = Option.get pcsi.Sim.check_report in
  check_bool "PCSI still shows the read-then-read inversion" false
    (Fixtures.satisfies Session.Strong_session preport);
  check_int "and no update-then-read inversions remain" 0
    preport.Watchdog.v_inversions_after_update

(* The fence_mix plan on the embedded system: per-template fences exactly
   as inferred. The mixed assignment must be clean end to end; weakening
   only the flagged template must reproduce its predicted anomaly. *)
let test_plan_cross_validation_embedded () =
  let templates = Builtin.fence_mix () in
  let plan = Plan.infer ~workload:"fence_mix" templates in
  let find name =
    List.find (fun (t : Template.t) -> t.Template.name = name) templates
  in
  let run_mix ~drop_inbox_fence =
    let sys = System.create ~secondaries:2 ~guarantee:Session.Weak () in
    let client = System.connect sys "alice" in
    let exec name binding =
      let t = find name in
      let stmts = Template.instantiate t binding in
      if t.Template.read_only then begin
        let fence =
          if drop_inbox_fence && name = "read_inbox" then None
          else plan_fence plan name
        in
        match fence with
        | Some f -> System.read ~fence:f sys client (fun h -> exec_all h stmts)
        | None -> System.read sys client (fun h -> exec_all h stmts)
      end
      else
        match System.update sys client (fun h -> exec_all h stmts) with
        | Ok () -> ()
        | Error _ -> Alcotest.failf "%s aborted" name
    in
    (match
       System.update sys client (fun h ->
           exec_all h
             (parse_init
                [
                  "INSERT INTO boards (pk, headline) VALUES ('summary', 'all \
                   green')";
                  "INSERT INTO archive (pk, body) VALUES ('d1', 'old text')";
                ]))
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "init aborted");
    System.pump sys;
    (* The session: browse (the plan leaves these unfenced), post a
       message, then immediately list the inbox at the stale secondary —
       the inversion the plan fences against. *)
    exec "read_dashboard" [];
    exec "read_archive" [ ("doc", Ast.Text "d1") ];
    exec "post_message"
      [
        ("msg", Ast.Text "m1"); ("user", Ast.Text "alice");
        ("body", Ast.Text "hi");
      ];
    exec "read_inbox" [ ("user", Ast.Text "alice") ];
    System.pump sys;
    Fixtures.audit ~clock:(System.commit_clock sys) (System.history sys)
  in
  let clean = run_mix ~drop_inbox_fence:false in
  check_bool "the mixed plan satisfies strong session SI" true
    (Fixtures.satisfies Session.Strong_session clean);
  check_int "all fence claims honoured" 0 clean.Watchdog.fence_failures;
  let broken = run_mix ~drop_inbox_fence:true in
  check_bool "dropping only read_inbox's fence loses strong session SI" false
    (Fixtures.satisfies Session.Strong_session broken);
  check_bool "the inversion is the predicted update-then-read kind" true
    (broken.Watchdog.v_inversions_after_update > 0);
  check_bool "and the plan's witness named exactly this race" true
    (List.exists
       (fun (f : Session_pass.flag) ->
         f.Session_pass.kind = Session_pass.Update_then_read
         && f.Session_pass.earlier = "post_message"
         && f.Session_pass.later = "read_inbox")
       (match plan_assignment plan "read_inbox" with
       | Some a -> a.Plan.flags
       | None -> []))

let () =
  Alcotest.run "analysis"
    [
      ( "symbolic",
        [
          Alcotest.test_case "region classification" `Quick test_symbolic_regions;
          Alcotest.test_case "conservative overlap" `Quick test_symbolic_overlap;
          Alcotest.test_case "params and instantiation" `Quick
            test_template_params_and_instantiate;
        ] );
      ( "sdg",
        [
          Alcotest.test_case "write skew flagged" `Quick
            test_sdg_write_skew_flagged;
          Alcotest.test_case "disjoint clean" `Quick test_sdg_disjoint_clean;
          Alcotest.test_case "tpcw pivots on the predicate writer" `Quick
            test_sdg_tpcw_pivots;
          Alcotest.test_case "duplicate template names rejected" `Quick
            test_duplicate_template_rejected;
          Alcotest.test_case "region-overlap edge cases" `Quick
            test_sdg_overlap_edges;
        ] );
      ( "session-pass",
        [
          Alcotest.test_case "tpcw session flags" `Quick test_session_pass_tpcw;
          Alcotest.test_case "report JSON round trip" `Quick
            test_report_json_roundtrip;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "write_skew: cycles covered" `Quick
            test_cross_validate_write_skew;
          Alcotest.test_case "tpcw: cycles covered" `Quick
            test_cross_validate_tpcw;
          Alcotest.test_case "disjoint: no cycles" `Quick
            test_cross_validate_disjoint;
          Alcotest.test_case "session inversions predicted" `Quick
            test_session_cross_validation;
        ] );
      ( "planner",
        [
          Alcotest.test_case "fence_mix minimal assignment" `Quick
            test_plan_fence_mix;
          Alcotest.test_case "tpcw mixed cost and residual" `Quick
            test_plan_tpcw;
          Alcotest.test_case "plan JSON canonical" `Quick
            test_plan_json_deterministic;
          Alcotest.test_case "plan vs simulator (both directions)" `Quick
            test_plan_cross_validation_sim;
          Alcotest.test_case "plan vs embedded system (both directions)" `Quick
            test_plan_cross_validation_embedded;
        ] );
    ]
