open Lsr_storage

type guarantee =
  | Weak
  | Prefix_consistent
  | Strong_session
  | Strong

let guarantee_name = function
  | Weak -> "ALG-WEAK-SI"
  | Prefix_consistent -> "ALG-PCSI"
  | Strong_session -> "ALG-STRONG-SESSION-SI"
  | Strong -> "ALG-STRONG-SI"

type level = All_sessions | In_session | After_update

let forbidden_level = function
  | Weak -> None
  | Prefix_consistent -> Some After_update
  | Strong_session -> Some In_session
  | Strong -> Some All_sessions

(* --- Freshness fences -------------------------------------------------------- *)

type fence =
  | Exact of Timestamp.t
  | Max_age of float
  | Session_seq

let fence_to_string = function
  | Exact ts -> Printf.sprintf "exact:%d" ts
  | Max_age d -> Printf.sprintf "age:%g" d
  | Session_seq -> "session"

let fence_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad fence %S (expected exact:<ts> | age:<delta> | session)" s)
  in
  match String.index_opt s ':' with
  | None -> if s = "session" then Ok Session_seq else fail ()
  | Some i -> (
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "exact" -> (
      match int_of_string_opt arg with
      | Some ts when ts >= 0 -> Ok (Exact ts)
      | _ -> fail ())
    | "age" -> (
      match float_of_string_opt arg with
      | Some d when Float.is_finite d && d >= 0. -> Ok (Max_age d)
      | _ -> fail ())
    | _ -> fail ())

let pp_fence ppf f = Format.pp_print_string ppf (fence_to_string f)

(* The primary's commit clock: an append-only monotone map from commit
   timestamp to the virtual time it committed at, answering "which commits
   are older than [cutoff]?" by binary search. Both coordinates are
   monotone, so parallel arrays suffice. *)
type clock = {
  mutable cl_ts : Timestamp.t array;
  mutable cl_at : float array;
  mutable cl_len : int;
}

let clock_create () =
  { cl_ts = Array.make 64 Timestamp.zero; cl_at = Array.make 64 0.; cl_len = 0 }

let clock_note c ~commit_ts ~at =
  if c.cl_len > 0 then begin
    let last_ts = c.cl_ts.(c.cl_len - 1) and last_at = c.cl_at.(c.cl_len - 1) in
    if Timestamp.compare commit_ts last_ts <= 0 then
      invalid_arg "Session.clock_note: commit timestamps must be monotone";
    if at < last_at then
      invalid_arg "Session.clock_note: commit times must be monotone"
  end;
  if c.cl_len = Array.length c.cl_ts then begin
    let ts = Array.make (2 * c.cl_len) Timestamp.zero in
    let at = Array.make (2 * c.cl_len) 0. in
    Array.blit c.cl_ts 0 ts 0 c.cl_len;
    Array.blit c.cl_at 0 at 0 c.cl_len;
    c.cl_ts <- ts;
    c.cl_at <- at
  end;
  c.cl_ts.(c.cl_len) <- commit_ts;
  c.cl_at.(c.cl_len) <- at;
  c.cl_len <- c.cl_len + 1

(* Largest commit timestamp whose commit time is <= cutoff (zero if none):
   a snapshot at least this fresh misses no commit older than the cutoff. *)
let clock_horizon c ~cutoff =
  let lo = ref 0 and hi = ref c.cl_len in
  (* Invariant: entries < !lo have at <= cutoff, entries >= !hi have at > cutoff. *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.cl_at.(mid) <= cutoff then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then Timestamp.zero else c.cl_ts.(!lo - 1)

(* Position of [ts] in the clock, -1 when absent. *)
let clock_index c ts =
  let lo = ref 0 and hi = ref c.cl_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Timestamp.compare c.cl_ts.(mid) ts < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < c.cl_len && Timestamp.equal c.cl_ts.(!lo) ts then !lo else -1

let clock_time_of c ts =
  let i = clock_index c ts in
  if i < 0 then None else Some c.cl_at.(i)

(* The clock is append-only, so the commit ordinal of [snapshot] is its
   position plus one and every later entry is a commit it misses. *)
let clock_freshness c ~snapshot ~now =
  let i = clock_index c snapshot in
  let missed = c.cl_len - (i + 1) in
  if missed = 0 then (0., 0)
  else if i < 0 then (now, missed)
  else (now -. c.cl_at.(i), missed)

let clock_len c = c.cl_len

module Labels = Hashtbl.Make (String)

type t = {
  guarantee : guarantee;
  seqs : Timestamp.t Labels.t;
  read_floors : Timestamp.t Labels.t;
}

let create guarantee =
  { guarantee; seqs = Labels.create 64; read_floors = Labels.create 64 }

let guarantee t = t.guarantee

let global_label = "<global>"

(* The label used for ordering: the client's own label normally, one global
   label under [Strong]. (Under [Weak] the result is never consulted.) *)
let effective_label t label =
  match t.guarantee with
  | Strong -> global_label
  | Weak | Prefix_consistent | Strong_session -> label

let lookup tbl label =
  Option.value ~default:Timestamp.zero (Labels.find_opt tbl label)

let seq t label = lookup t.seqs (effective_label t label)
let read_floor t label = lookup t.read_floors (effective_label t label)

let raise_to tbl label ts =
  if Timestamp.compare ts (lookup tbl label) > 0 then Labels.replace tbl label ts

let note_update_commit t ~label ~commit_ts =
  raise_to t.seqs (effective_label t label) commit_ts

let note_read ?fence t ~label ~snapshot =
  match (t.guarantee, fence) with
  | (Strong_session | Strong), _ | _, Some Session_seq ->
    (* A [Session_seq] fence promises session-monotone snapshots even when
       the ambient guarantee would not track them — exactly what makes it
       reduce to ALG-STRONG-SESSION-SI. *)
    raise_to t.read_floors (effective_label t label) snapshot
  | (Weak | Prefix_consistent), (None | Some (Exact _ | Max_age _)) -> ()

let guarantee_required_seq t ~label =
  match t.guarantee with
  | Weak -> Timestamp.zero
  | Prefix_consistent -> seq t label
  | Strong_session | Strong -> Timestamp.max (seq t label) (read_floor t label)

let read_threshold ?fence t ~clock ~now ~label =
  let fenced b () = Timestamp.max (guarantee_required_seq t ~label) b in
  match fence with
  | None -> fun () -> guarantee_required_seq t ~label
  | Some Session_seq ->
    (* Never below the guarantee's part, whatever the guarantee. *)
    fun () -> Timestamp.max (seq t label) (read_floor t label)
  | Some (Exact b) -> fenced b
  | Some (Max_age d) -> fenced (clock_horizon clock ~cutoff:(now -. d))
