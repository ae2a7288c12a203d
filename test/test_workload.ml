(* Tests for the TPC-W-derived workload generator (lsr_workload). *)

open Lsr_workload
open Lsr_sim
open Lsr_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let op_count (spec : Txn_gen.spec) = List.length spec.ops

let write_count (spec : Txn_gen.spec) =
  List.length
    (List.filter (function Txn_gen.Write_op _ -> true | Read_op _ -> false) spec.ops)

(* --- Params ---------------------------------------------------------------- *)

let test_defaults_match_table1 () =
  let p = Params.default in
  check_int "clients per secondary" 20 p.Params.clients_per_secondary;
  Alcotest.(check (float 0.)) "think time" 7. p.Params.think_time;
  Alcotest.(check (float 0.)) "session time" 900. p.Params.session_time;
  Alcotest.(check (float 0.)) "update txn prob" 0.20 p.Params.update_tran_prob;
  Alcotest.(check (float 0.)) "abort prob" 0.01 p.Params.abort_prob;
  check_int "min size" 5 p.Params.tran_size_min;
  check_int "max size" 15 p.Params.tran_size_max;
  Alcotest.(check (float 0.)) "op service" 0.02 p.Params.op_service_time;
  Alcotest.(check (float 0.)) "update op prob" 0.30 p.Params.update_op_prob;
  Alcotest.(check (float 0.)) "propagation delay" 10. p.Params.propagation_delay

let test_browsing_mix () =
  let p = Params.browsing Params.default in
  Alcotest.(check (float 0.)) "95/5 mix" 0.05 p.Params.update_tran_prob

let test_quick_shrinks_runs () =
  let p = Params.quick Params.default in
  check_bool "shorter duration" true (p.Params.duration < Params.default.Params.duration);
  check_bool "fewer reps" true
    (p.Params.replications < Params.default.Params.replications)

let test_table1_rows_complete () =
  check_int "ten parameters" 10 (List.length (Params.table1_rows Params.default))

(* --- Txn_gen ---------------------------------------------------------------- *)

let generate_many ?(params = Params.default) ?(n = 2000) seed =
  let rng = Rng.create seed in
  List.init n (fun _ -> Txn_gen.generate params rng)

let test_sizes_in_range () =
  List.iter
    (fun spec ->
      let n = op_count spec in
      check_bool "size within [5,15]" true (n >= 5 && n <= 15))
    (generate_many 1)

let test_read_only_has_no_writes () =
  List.iter
    (fun spec ->
      if not (Txn_gen.is_update spec) then
        check_int "read-only writes" 0 (write_count spec))
    (generate_many 2)

let test_update_has_a_write () =
  List.iter
    (fun spec ->
      if Txn_gen.is_update spec then
        check_bool "update writes >= 1" true (write_count spec >= 1))
    (generate_many 3)

let test_mix_frequency () =
  let specs = generate_many ~n:10_000 4 in
  let updates = List.length (List.filter Txn_gen.is_update specs) in
  let freq = float_of_int updates /. 10_000. in
  check_bool "update frequency near 20%" true (Float.abs (freq -. 0.2) < 0.02)

let test_browsing_frequency () =
  let specs = generate_many ~params:(Params.browsing Params.default) ~n:10_000 5 in
  let updates = List.length (List.filter Txn_gen.is_update specs) in
  let freq = float_of_int updates /. 10_000. in
  check_bool "update frequency near 5%" true (Float.abs (freq -. 0.05) < 0.01)

let test_update_op_frequency () =
  (* Among the ops of update transactions, ~30% write (slightly more due to
     the at-least-one-write rule). *)
  let specs = List.filter Txn_gen.is_update (generate_many ~n:20_000 6) in
  let ops = List.fold_left (fun acc s -> acc + op_count s) 0 specs in
  let writes = List.fold_left (fun acc s -> acc + write_count s) 0 specs in
  let freq = float_of_int writes /. float_of_int ops in
  check_bool "write op frequency near 30%" true (freq > 0.28 && freq < 0.34)

let test_keys_within_space () =
  let params = { Params.default with Params.key_space = 100 } in
  List.iter
    (fun spec ->
      List.iter
        (fun op ->
          let key =
            match op with Txn_gen.Read_op k -> k | Txn_gen.Write_op (k, _) -> k
          in
          check_bool "key format" true
            (String.length key = 11 && String.sub key 0 5 = "item:");
          let idx = int_of_string (String.sub key 5 6) in
          check_bool "key within space" true (idx >= 0 && idx < 100))
        spec.Txn_gen.ops)
    (generate_many ~params ~n:500 7)

let test_mean_transaction_size () =
  let specs = generate_many ~n:20_000 8 in
  let total = List.fold_left (fun acc s -> acc + op_count s) 0 specs in
  let mean = float_of_int total /. 20_000. in
  check_bool "mean size near 10" true (Float.abs (mean -. 10.) < 0.1)

let test_key_skew_concentrates () =
  let skewed = { Params.default with Params.key_skew = 1.2; key_space = 1000 } in
  let count_hot specs =
    List.fold_left
      (fun acc spec ->
        acc
        + List.length
            (List.filter
               (fun op ->
                 let key =
                   match op with
                   | Txn_gen.Read_op k -> k
                   | Txn_gen.Write_op (k, _) -> k
                 in
                 (* hot = the ten most popular items *)
                 int_of_string (String.sub key 5 6) < 10)
               spec.Txn_gen.ops))
      0 specs
  in
  let hot_uniform =
    count_hot (generate_many ~params:{ skewed with Params.key_skew = 0. } ~n:1000 9)
  in
  let hot_skewed = count_hot (generate_many ~params:skewed ~n:1000 9) in
  check_bool "skew concentrates ops on hot keys" true
    (hot_skewed > 10 * (hot_uniform + 1))

let test_determinism () =
  let a = generate_many ~n:100 42 and b = generate_many ~n:100 42 in
  check_bool "same seed, same workload" true (a = b)

let prop_generate_wellformed =
  QCheck.Test.make ~name:"generated transactions are well-formed" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let spec = Txn_gen.generate Params.default rng in
      let n = op_count spec in
      n >= 5 && n <= 15
      &&
      if Txn_gen.is_update spec then write_count spec >= 1
      else write_count spec = 0)

(* The generator as it drew inline before [generate] became [draw] plus
   the keys: the size, the kind, then each operation in order. *)
let inline_generate p rng : Txn_gen.spec =
  let key () =
    let n = p.Params.key_space in
    Printf.sprintf "item:%06d"
      (if p.Params.key_skew > 0. then Rng.zipf rng ~n ~s:p.Params.key_skew - 1
       else Rng.uniform rng ~lo:0 ~hi:(n - 1))
  in
  let size = Rng.uniform rng ~lo:p.Params.tran_size_min ~hi:p.Params.tran_size_max in
  if Rng.bernoulli rng ~p:p.Params.update_tran_prob then begin
    let ops =
      List.init size (fun _ ->
          if Rng.bernoulli rng ~p:p.Params.update_op_prob then
            Txn_gen.Write_op (key (), Txn_gen.fresh_value rng)
          else Txn_gen.Read_op (key ()))
    in
    let ops =
      if List.exists (function Txn_gen.Write_op _ -> true | Read_op _ -> false) ops
      then ops
      else
        match ops with
        | Txn_gen.Read_op k :: rest -> Txn_gen.Write_op (k, Txn_gen.fresh_value rng) :: rest
        | (Txn_gen.Write_op _ :: _ | []) -> ops
    in
    { kind = Update; ops }
  end
  else { kind = Read_only; ops = List.init size (fun _ -> Txn_gen.Read_op (key ())) }

(* [Txn_gen.draw] leaves each read's keys in the stream: over random
   parameters (uniform and Zipf keys), a run of draws leaves the stream
   where the inline generator leaves it, and the keys drawn afterwards from
   each read's copy are its keys. [generate], which is [draw] with the keys
   drawn at once, makes the inline generator's transactions and leaves the
   stream at the same place. *)
let prop_draw_matches_generate =
  let params =
    QCheck.Gen.(
      map
        (fun ((lo, span, update), (skew, keys)) ->
          {
            Params.default with
            Params.tran_size_min = lo;
            tran_size_max = lo + span;
            update_tran_prob = update;
            key_skew = skew;
            key_space = keys;
          })
        (pair
           (triple (int_range 1 10) (int_range 0 10) (float_bound_inclusive 1.))
           (pair
              (oneof [ return 0.; float_range 0.01 2. ])
              (int_range 1 100_000))))
  in
  QCheck.Test.make ~name:"draw with late keys is generate" ~count:300
    (QCheck.make QCheck.Gen.(pair int params))
    (fun (seed, p) ->
      let inline = Rng.create seed
      and live = Rng.create seed
      and split = Rng.create seed in
      let specs = List.init 8 (fun _ -> inline_generate p inline) in
      let generated = List.init 8 (fun _ -> Txn_gen.generate p live) in
      let draws = List.init 8 (fun _ -> Txn_gen.draw p split) in
      let next = Rng.bits64 inline in
      next = Rng.bits64 live
      && next = Rng.bits64 split
      && generated = specs
      && List.for_all2
           (fun (spec : Txn_gen.spec) draw ->
             match (spec.kind, draw) with
             | Txn_gen.Update, Txn_gen.Updates ops -> ops = spec.ops
             | Txn_gen.Read_only, Txn_gen.Reads { size; keys } ->
               List.init size (fun _ ->
                   Txn_gen.Read_op (Mvcc.key_name (Txn_gen.index p keys)))
               = spec.ops
             | (Txn_gen.Update | Txn_gen.Read_only), _ -> false)
           specs draws)

(* Key names are the bytes [Printf.sprintf "item:%06d"] gives, for every
   int: padding boundaries, signs and both extremes, then random ints. *)
let key_name_matches i = Mvcc.key_name i = Printf.sprintf "item:%06d" i

let test_key_name_edges () =
  List.iter
    (fun i -> check_bool (string_of_int i) true (key_name_matches i))
    [ 0; 1; 9; 10; 99_999; 100_000; 999_999; 1_000_000; 123_456_789; -1; -9;
      -10; -9_999; -99_999; -100_000; -1_000_000; max_int; min_int ]

let prop_key_name_printf =
  QCheck.Test.make ~name:"key_name agrees with Printf" ~count:2000 QCheck.int
    key_name_matches

(* Every index the fast path takes, both of its edges and the slow path
   around them, checked one by one. *)
let test_key_name_exhaustive () =
  for i = -1_200_000 to 1_200_000 do
    if not (key_name_matches i) then
      Alcotest.failf "key_name %d = %S" i (Mvcc.key_name i)
  done;
  check_bool "min_int" true (key_name_matches min_int);
  check_bool "max_int" true (key_name_matches max_int)

(* A twin generator draws the same 64-bit words for the reference. *)
let test_fresh_value_matches () =
  let rng = Rng.create 20060912 and twin = Rng.create 20060912 in
  for _ = 1 to 1_000_000 do
    let got = Txn_gen.fresh_value rng in
    let want = "v" ^ Int64.to_string (Rng.bits64 twin) in
    if not (String.equal got want) then Alcotest.failf "%S <> %S" got want
  done

let () =
  Alcotest.run "lsr_workload"
    [
      ( "params",
        [
          Alcotest.test_case "defaults match Table 1" `Quick
            test_defaults_match_table1;
          Alcotest.test_case "browsing mix" `Quick test_browsing_mix;
          Alcotest.test_case "quick mode" `Quick test_quick_shrinks_runs;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows_complete;
        ] );
      ( "txn_gen",
        [
          Alcotest.test_case "sizes in range" `Quick test_sizes_in_range;
          Alcotest.test_case "read-only has no writes" `Quick
            test_read_only_has_no_writes;
          Alcotest.test_case "update has a write" `Quick test_update_has_a_write;
          Alcotest.test_case "80/20 mix frequency" `Quick test_mix_frequency;
          Alcotest.test_case "95/5 mix frequency" `Quick test_browsing_frequency;
          Alcotest.test_case "update-op frequency" `Quick test_update_op_frequency;
          Alcotest.test_case "keys within space" `Quick test_keys_within_space;
          Alcotest.test_case "mean transaction size" `Quick
            test_mean_transaction_size;
          Alcotest.test_case "key skew concentrates" `Quick
            test_key_skew_concentrates;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          QCheck_alcotest.to_alcotest prop_generate_wellformed;
          QCheck_alcotest.to_alcotest prop_draw_matches_generate;
          Alcotest.test_case "key names at the edges" `Quick test_key_name_edges;
          QCheck_alcotest.to_alcotest prop_key_name_printf;
          Alcotest.test_case "key names exhaustively" `Quick
            test_key_name_exhaustive;
          Alcotest.test_case "fresh values match Int64.to_string" `Quick
            test_fresh_value_matches;
        ] );
    ]
