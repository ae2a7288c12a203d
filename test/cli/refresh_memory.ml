(* Memory guard for refresh: a secondary must install the writeset the
   propagator shipped, not a copy of it. Preloads [keys] keys in 1,000-key
   transactions into an embedded system with 3 secondaries, pumps, and
   fails when the words the four stores reach together
   ([Obj.reachable_words] of one tuple of them, so that a block two stores
   share counts once) reach [bound_words]. Rewriting every update into a
   fresh record and list per secondary took 1,299,005 words here; handing
   the shipped list over whole, 999,005, while the primary still logged
   one entry per write and the propagator built a second list; shipping
   the list the primary's commit installed and logged, 846,322.

   Exact and deterministic: it reads no /proc and prints only on failure. *)

open Lsr_core
open Lsr_workload

let keys = 20_000
let chunk = 1_000
let bound_words = 900_000

let () =
  let sys = System.create ~secondaries:3 ~guarantee:Session.Strong_session () in
  let loader = System.connect sys "loader" in
  for c = 0 to (keys / chunk) - 1 do
    match
      System.update sys loader (fun h ->
          for k = c * chunk to ((c + 1) * chunk) - 1 do
            Handle.put h (Txn_gen.key_name k) "v0"
          done)
    with
    | Ok () -> ()
    | Error _ -> failwith "preload aborted"
  done;
  System.pump sys;
  let stores =
    (System.primary_db sys, System.secondary_db sys 0, System.secondary_db sys 1,
     System.secondary_db sys 2)
  in
  let words = Obj.reachable_words (Obj.repr stores) in
  if words >= bound_words then begin
    Printf.printf
      "refresh_memory: FAIL, the four stores reach %d words after refreshing \
       %d keys (bound %d)\n"
      words keys bound_words;
    exit 1
  end
