(* Load-balancing reads across replicas: where strong session SI and PCSI
   part ways (§7).

   Run with: dune exec examples/load_balancer.exe

   A session pinned to one secondary gets monotonically fresher snapshots
   for free. The moment a load balancer serves its reads from different
   replicas, two session guarantees become distinguishable:

   - strong session SI also forbids the session's snapshots from moving
     backwards (the read "floor"), so a read routed to a laggier replica
     must wait;
   - PCSI (prefix-consistent SI) only requires a session to see its own
     earlier updates — a read after migration may quietly travel back in
     time, as long as the session's own writes remain visible. *)

open Lsr_core

let update_exn sys c f =
  match System.update sys c f with
  | Ok v -> v
  | Error _ -> failwith "transaction aborted"

(* Build a system whose secondary 0 is fresh and secondary 1 lags: only the
   session's own first update has reached site 1. *)
let scenario guarantee =
  let sys = System.create ~secondaries:2 ~guarantee () in
  let user = System.connect sys ~secondary:0 "user-1" in
  update_exn sys user (fun h -> Handle.put h "cart" "1 item");
  ignore (System.propagate sys);
  ignore (System.refresh_one sys 0);
  (* Apply the cart update at site 1 too, but stop there: fire site 1's
     refresher until it dispatches the update, then commit it. *)
  let rs = System.replica_set sys in
  let rec apply_one () =
    match Replica_set.fire rs (Replica_set.Refresh 1) with
    | Replica_set.Started -> apply_one ()
    | Replica_set.Dispatched _ -> ignore (Replica_set.fire rs (Replica_set.Commit 1))
    | _ -> ()
  in
  apply_one ();
  (* Another user's update reaches only the fresh site. *)
  let other = System.connect sys ~secondary:0 "user-2" in
  update_exn sys other (fun h -> Handle.put h "banner" "sale!");
  ignore (System.propagate sys);
  ignore (System.refresh_one sys 0);
  (sys, user)

let run_for guarantee =
  Printf.printf "\n--- %s ---\n" (Session.guarantee_name guarantee);
  let sys, user = scenario guarantee in
  (* First read is served by the fresh replica. *)
  let banner = System.read sys user (fun h -> Handle.get h "banner") in
  Printf.printf "read @ fresh site 0: cart visible, banner = %s\n"
    (Option.value ~default:"<none>" banner);
  (* The load balancer now routes the same session to the laggy replica. *)
  let moved = System.migrate sys user 1 in
  match System.read_nowait sys moved (fun h -> (Handle.get h "cart", Handle.get h "banner")) with
  | Some (cart, banner) ->
    Printf.printf
      "read @ laggy site 1 proceeds: cart = %s, banner = %s%s\n"
      (Option.value ~default:"<none>" cart)
      (Option.value ~default:"<none>" banner)
      (if banner = None then "  <- the snapshot moved backwards!" else "")
  | None ->
    print_endline
      "read @ laggy site 1 would BLOCK: the guarantee forbids the snapshot \
       from moving backwards, so the session waits for refresh"

let () =
  print_endline
    "a session's reads are load-balanced from a fresh replica to a lagging one";
  run_for Session.Strong_session;
  run_for Session.Prefix_consistent;
  run_for Session.Weak;
  print_endline
    "\nstrong session SI buys monotonic snapshots at the price of waiting\n\
     after migration; PCSI keeps read-your-writes but lets time run\n\
     backwards across replicas; weak SI promises nothing. Quantified in\n\
     `bench/main.exe ablate-pcsi`."
