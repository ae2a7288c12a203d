type sample = { run : int; time : float; values : (string * float) list }

type t = {
  mutable run : int;
  mutable rev_samples : sample list;
}

let create () = { run = 0; rev_samples = [] }

let new_run t = t.run <- t.run + 1

let add t ~time values =
  t.rev_samples <- { run = t.run; time; values } :: t.rev_samples

let samples t = List.rev t.rev_samples

let columns t =
  let module S = Set.Make (String) in
  let set =
    List.fold_left
      (fun acc s -> List.fold_left (fun acc (k, _) -> S.add k acc) acc s.values)
      S.empty t.rev_samples
  in
  S.elements set

(* One row per sample, columns sorted by name: same samples, same bytes. A
   sample that lacks a column yields null. *)

let to_json t =
  let cols = columns t in
  let row (s : sample) =
    Json.Arr
      (Json.Num (float_of_int s.run) :: Json.Num s.time
      :: List.map
           (fun c ->
             match List.assoc_opt c s.values with
             | Some v -> Json.Num v
             | None -> Json.Null)
           cols)
  in
  Json.Obj
    [
      ( "columns",
        Json.Arr (Json.Str "run" :: Json.Str "time" :: List.map (fun c -> Json.Str c) cols) );
      ("rows", Json.Arr (List.map row (samples t)));
    ]
