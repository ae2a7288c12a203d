(* The memory guards' two probes: the process's resident-set high-water
   mark, and a census of the heap words a run's owners reach. *)

(* Resident-set high-water mark (VmHWM) in bytes, or [None] when
   /proc/self/status cannot be read. *)
let vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> Some (1024. *. float_of_int kb))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* [census owners] is each owner's reachable words, attributed in order:
   owner i gets the words owners 1..i reach together minus the words
   owners 1..i-1 reach, so a block it shares with an earlier owner is that
   owner's. The list cells holding the owners (3 words each) are not
   counted. Deterministic: it reads no /proc and no allocator state. *)
let census owners =
  let reach held = Obj.reachable_words (Obj.repr held) - (3 * List.length held) in
  let rec charge held before = function
    | [] -> []
    | owner :: rest ->
      let held = owner :: held in
      let total = reach held in
      (total - before) :: charge held total rest
  in
  charge [] 0 owners
