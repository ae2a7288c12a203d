(* Unused-exports lint: every [val] a library interface exports has a
   caller outside its own module in lib/, bin/, bench/ or examples/ (the
   serializability library under examples/ included). A
   [val] that only tests call, or nothing calls, is deleted, made private,
   moved into the test that uses it, or listed in the allowlist with a
   one-line reason.

   It reads the compiler's typed trees, not the sources: the exported
   [val]s come from each library module's .cmti, and the callers are the
   resolved value paths ([Texp_ident]) of every .cmt given. Opens and
   [module X = ...] aliases (dune's library wrappers included) resolve
   through the typed tree, so [Obs.observe] after
   [module Obs = Lsr_obs.Obs] counts as a call of [Lsr_obs__Obs.observe].
   A module used whole (a functor argument, [include], a packed
   first-class module) counts as a call of each of its values.

   Usage: unused_exports.exe FILE... where the files are the allowlist
   (.allow), the library interfaces (.mli), and the .cmti/.cmt files of
   the library, executable and test object directories; every .cmti given
   is a library interface whose vals are checked. A caller whose
   source is under test/ only classifies a finding ("only tests call it"
   or "nothing calls it"). Exits 1 listing:
   - each exported [val] with no caller outside its module and no
     allowlist line;
   - each stale allowlist line: a [val] that does not exist, that has an
     outside caller, or that nothing calls at all (delete it instead);
   - each allowlist line without a reason, and each duplicate;
   - each library .mli with no .cmti among the inputs (a directory the
     rule does not cover). *)

(* "Lsr_sim__Resource" -> "Resource"; an unwrapped name stays as is. *)
let short_name modname =
  let rec last_sep i =
    if i < 0 then None
    else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
    else last_sep (i - 1)
  in
  match last_sep (String.length modname - 2) with
  | Some i -> String.sub modname (i + 2) (String.length modname - i - 2)
  | None -> modname

let rec strip_parents path =
  match String.index_opt path '/' with
  | Some i when String.sub path 0 i = ".." || String.sub path 0 i = "." ->
    strip_parents (String.sub path (i + 1) (String.length path - i - 1))
  | _ -> path

(* --- Callers ------------------------------------------------------------ *)

(* A module path as far as one file's typed tree resolves it: a
   compilation unit followed by the fields selected from it. Aliases
   between units ([Lsr_sim.Resource] = [Lsr_sim__Resource]) are applied
   once every file is read. *)
type modpath = string list

type uses = {
  mutable values : (modpath * string) list;  (* module path, value name *)
  mutable modules : modpath list;  (* modules used whole *)
  mutable aliases : (string * modpath) list;  (* top-level [module X = P] *)
}

let rec resolve locals (p : Path.t) =
  match p with
  | Pident id ->
    if Ident.global id then Some [ Ident.name id ]
    else List.assoc_opt (Ident.unique_name id) locals
  | Pdot (m, s) -> Option.map (fun m -> m @ [ s ]) (resolve locals m)
  | Papply _ | Pextra_ty _ -> None

let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let collect_uses (str : Typedtree.structure) =
  let uses = { values = []; modules = []; aliases = [] } in
  (* Module aliases in scope; a shadowing binding gets a fresh unique
     name, so one association list suffices. *)
  let locals = ref [] in
  let depth = ref 0 in
  let bind_alias id me =
    match alias_target me with
    | None -> false
    | Some p ->
      Option.iter
        (fun target ->
          locals := (Ident.unique_name id, target) :: !locals;
          if !depth = 0 then uses.aliases <- (Ident.name id, target) :: uses.aliases)
        (resolve !locals p);
      true
  in
  let default = Tast_iterator.default_iterator in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Pdot (m, v), _, _) ->
      Option.iter (fun m -> uses.values <- (m, v) :: uses.values) (resolve !locals m)
    | Texp_letmodule (Some id, _, _, me, body) when alias_target me <> None ->
      incr depth;
      ignore (bind_alias id me);
      decr depth;
      self.expr self body
    | _ -> default.expr self e
  in
  let module_expr self (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) ->
      Option.iter (fun m -> uses.modules <- m :: uses.modules) (resolve !locals p)
    | _ -> default.module_expr self me
  in
  let module_binding self (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id when bind_alias id mb.mb_expr -> ()
    | _ ->
      incr depth;
      default.module_binding self mb;
      decr depth
  in
  (* [open M] selects names; it uses none of them by itself. *)
  let open_declaration self (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default.open_declaration self od
  in
  let it = { default with expr; module_expr; module_binding; open_declaration } in
  it.structure it str;
  uses

(* Rewrite a path through the aliases between units, left to right. *)
let rec canonical aliases ?(depth = 0) = function
  | [] -> ""
  | head :: rest ->
    List.fold_left
      (fun cur s ->
        let next = cur ^ "." ^ s in
        match Hashtbl.find_opt aliases next with
        | Some target when depth < 16 -> canonical aliases ~depth:(depth + 1) target
        | _ -> next)
      head rest

(* --- Allowlist ---------------------------------------------------------- *)

type allow = { line : int; key : string; reason : string }

let read_allowlist file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i raw -> (i + 1, String.trim raw))
  |> List.filter_map (fun (line, s) ->
         if s = "" || s.[0] = '#' then None
         else
           match String.index_opt s ' ' with
           | None -> Some { line; key = s; reason = "" }
           | Some i ->
             let rest = String.sub s i (String.length s - i) in
             Some { line; key = String.sub s 0 i; reason = String.trim rest })

(* --- Main --------------------------------------------------------------- *)

type export = { modname : string; value : string; mli : string }

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let has ext f = Filename.check_suffix f ext in
  let exports = ref [] and covered = Hashtbl.create 64 and impls = ref [] in
  let aliases = Hashtbl.create 64 in
  List.iter
    (fun f ->
      if has ".cmti" f || has ".cmt" f then begin
        let info = Cmt_format.read_cmt f in
        let modname = info.cmt_modname in
        let source = Option.value ~default:"" info.cmt_sourcefile in
        match info.cmt_annots with
        | Interface sg ->
          Hashtbl.replace covered source ();
          List.iter
            (fun (item : Typedtree.signature_item) ->
              match item.sig_desc with
              | Tsig_value vd ->
                exports := { modname; value = vd.val_name.txt; mli = source } :: !exports
              | _ -> ())
            sg.sig_items
        | Implementation str ->
          let uses = collect_uses str in
          List.iter
            (fun (x, target) -> Hashtbl.replace aliases (modname ^ "." ^ x) target)
            uses.aliases;
          impls := (modname, String.starts_with ~prefix:"test/" source, uses) :: !impls
        | _ -> ()
      end)
    files;
  (* "Unit.value" (or "Unit", for a module used whole) -> [true] once a
     caller outside test/ is seen, [false] while only tests call it. *)
  let callers = Hashtbl.create 1024 in
  List.iter
    (fun (modname, in_test, uses) ->
      let note key =
        if key <> modname && not (String.starts_with ~prefix:(modname ^ ".") key)
        then
          let prev = Option.value ~default:false (Hashtbl.find_opt callers key) in
          Hashtbl.replace callers key (prev || not in_test)
      in
      List.iter (fun (m, v) -> note (canonical aliases m ^ "." ^ v)) uses.values;
      List.iter (fun m -> note (canonical aliases m)) uses.modules)
    !impls;
  let status e =
    let find key = Hashtbl.find_opt callers key in
    match (find (e.modname ^ "." ^ e.value), find e.modname) with
    | Some true, _ | _, Some true -> `Called
    | Some false, _ | _, Some false -> `Tests_only
    | None, None -> `No_caller
  in
  let problems = ref 0 in
  let report fmt =
    incr problems;
    Printf.printf (fmt ^^ "\n")
  in
  List.filter_map (fun f -> if has ".mli" f then Some (strip_parents f) else None) files
  |> List.sort_uniq compare
  |> List.iter (fun mli ->
         if not (Hashtbl.mem covered mli) then
           report "%s: no .cmti among the inputs (add its object directory to the rule)"
             mli);
  let display e = short_name e.modname ^ "." ^ e.value in
  let by_display = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_display (display e) e) !exports;
  let allowed = Hashtbl.create 64 in
  let allowfile = List.find_opt (has ".allow") files in
  Option.iter
    (fun file ->
      List.iter
        (fun a ->
          let stale why = report "%s:%d: %s: %s" file a.line a.key why in
          if Hashtbl.mem allowed a.key then stale "listed twice"
          else begin
            Hashtbl.replace allowed a.key ();
            if a.reason = "" then stale "no reason given";
            match Option.map status (Hashtbl.find_opt by_display a.key) with
            | None -> stale "stale: no such exported val"
            | Some `Called -> stale "stale: it has a caller outside its module"
            | Some `No_caller -> stale "stale: nothing calls it, not even a test (delete it)"
            | Some `Tests_only -> ()
          end)
        (read_allowlist file))
    allowfile;
  let findings =
    List.filter_map
      (fun e ->
        match status e with
        | `Called -> None
        | (`Tests_only | `No_caller) as s ->
          if Hashtbl.mem allowed (display e) then None else Some (e, s))
      !exports
    |> List.sort compare
  in
  List.iter
    (fun (e, s) ->
      report "%s: %s: %s" e.mli (display e)
        (match s with
        | `Tests_only -> "exported, but only tests call it"
        | `No_caller -> "exported, but nothing calls it"))
    findings;
  let count s = List.length (List.filter (fun (_, s') -> s' = s) findings) in
  if findings <> [] then
    Printf.printf "%d unused exports: %d with no caller, %d called only by tests\n"
      (List.length findings) (count `No_caller) (count `Tests_only);
  if !problems > 0 then exit 1
