open Lsr_core

type assignment = {
  template : string;
  read_only : bool;
  level : Session.guarantee;
  fence : Session.fence option;
  flags : Session_pass.flag list;
  why : string;
}

type t = {
  workload : string;
  uniform : Session.guarantee;
  assignments : assignment list;
  residual : Sdg.dangerous list;
}

let cost = function
  | Session.Weak -> 0
  | Session.Prefix_consistent -> 1
  | Session.Strong_session -> 2
  | Session.Strong -> 3

(* The only fence a static plan can hand out is [Session_seq]: [Exact] and
   [Max_age] thresholds are run-time values. [Session_seq]-fencing every
   read of a template is exactly ALG-STRONG-SESSION-SI for that template
   (Session.note_read keeps the read floor for fenced reads), so it
   realizes both Prefix_consistent and Strong_session levels — at
   Prefix_consistent it is slightly stronger than required, never weaker. *)
let fence_of_level = function
  | Session.Weak -> None
  | Session.Prefix_consistent | Session.Strong_session | Session.Strong ->
    Some Session.Session_seq

let why_of_flags = function
  | [] -> "no observable inversion reaches this template"
  | flags ->
    String.concat "; "
      (List.map
         (fun (f : Session_pass.flag) ->
           Printf.sprintf "%s after %s needs %s (%s)"
             (Session_pass.kind_name f.Session_pass.kind)
             f.Session_pass.earlier
             (Session.guarantee_name f.Session_pass.needs)
             f.Session_pass.witness)
         flags)

let infer ~workload templates =
  let report = Analyzer.run ~guarantee:Session.Weak ~workload templates in
  let all_flags = report.Analyzer.session_flags in
  let uniform = Session_pass.needed_guarantee all_flags in
  let assignments =
    List.map
      (fun (tm : Template.t) ->
        if tm.Template.read_only then begin
          (* A flag binds to the read-only template that observes the
             inversion ([later]); its level is the weakest guarantee
             preventing every inversion observable through it. *)
          let flags =
            List.filter
              (fun (f : Session_pass.flag) -> f.Session_pass.later = tm.Template.name)
              all_flags
          in
          let level = Session_pass.needed_guarantee flags in
          {
            template = tm.Template.name;
            read_only = true;
            level;
            fence = fence_of_level level;
            flags;
            why = why_of_flags flags;
          }
        end
        else
          {
            template = tm.Template.name;
            read_only = false;
            level = Session.Weak;
            fence = None;
            flags = [];
            why =
              "update template: executes at the primary, ordered by commit \
               timestamps regardless of session guarantee";
          })
      templates
    |> List.sort (fun a b -> String.compare a.template b.template)
  in
  {
    workload;
    uniform;
    assignments;
    residual = report.Analyzer.dangerous;
  }

let readers t = List.filter (fun a -> a.read_only) t.assignments

let mixed_cost t = List.fold_left (fun acc a -> acc + cost a.level) 0 (readers t)

let uniform_cost t = List.length (readers t) * cost t.uniform

let level_cell a =
  match a.fence with
  | None -> Session.guarantee_name a.level
  | Some f ->
    Printf.sprintf "%s (fence %s)" (Session.guarantee_name a.level)
      (Session.fence_to_string f)

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "== plan for workload %s ==" t.workload;
  line "uniform weakest-safe guarantee: %s (cost %d); mixed plan cost %d"
    (Session.guarantee_name t.uniform)
    (uniform_cost t) (mixed_cost t);
  line "assignments:";
  Buffer.add_string b
    (Lsr_stats.Table_fmt.render
       ~header:[ "template"; "class"; "assignment"; "flags" ]
       (List.map
          (fun a ->
            [
              a.template;
              (if a.read_only then "read-only" else "update");
              level_cell a;
              string_of_int (List.length a.flags);
            ])
          t.assignments));
  Buffer.add_char b '\n';
  line "why:";
  List.iter (fun a -> line "  %s: %s" a.template a.why) t.assignments;
  (match t.residual with
  | [] -> line "residual dangerous structures: none"
  | ds ->
    line
      "residual dangerous structures: %d — session guarantees order a \
       session against itself and cannot prevent cross-session write skew; \
       allowlist deliberately or defuse via first-committer-wins \
       read-modify-write"
      (List.length ds);
    List.iter (fun d -> line "  %s" (Sdg.dangerous_id d)) ds);
  Buffer.contents b

let to_json t =
  let open Lsr_obs.Json in
  let assignment_json a =
    Obj
      [
        ("template", Str a.template);
        ("read_only", Bool a.read_only);
        ("level", Str (Session.guarantee_name a.level));
        ( "fence",
          match a.fence with
          | None -> Null
          | Some f -> Str (Session.fence_to_string f) );
        ("flags", Num (float_of_int (List.length a.flags)));
        ("why", Str a.why);
      ]
  in
  sort_keys
    (Obj
       [
         ("workload", Str t.workload);
         ("uniform_guarantee", Str (Session.guarantee_name t.uniform));
         ("uniform_cost", Num (float_of_int (uniform_cost t)));
         ("mixed_cost", Num (float_of_int (mixed_cost t)));
         ("assignments", Arr (List.map assignment_json t.assignments));
         ( "residual_dangerous",
           Arr (List.map (fun d -> Str (Sdg.dangerous_id d)) t.residual) );
       ])
