(* Global-state lint: a library module keeps no mutable state at module
   level. Fails when a top-level binding (in a structure, or in a module
   nested in one) of a library source calls [ref], [Hashtbl.create] or
   [Array.make] while the module is initialised, rather than inside a
   function or a functor. Such state would be shared by every engine and
   every run in the program: a global timer or closure pool would stand in
   for per-engine state, and two runs on two domains would race on it.

   Usage: global_state.exe FILE.ml... (the library sources). Exits 1
   listing each offending call. *)

let forbidden = [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Array"; "make" ] ]

let rec components = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> components p @ [ s ]
  | Longident.Lapply _ -> []

let is_forbidden lid =
  let name =
    match components lid with "Stdlib" :: rest -> rest | name -> name
  in
  List.mem name forbidden

(* The forbidden identifiers that module initialisation evaluates: the
   walk does not enter function bodies, [lazy] or functor bodies. *)
let offences structure =
  let found = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
    | Pexp_ident { txt; loc } when is_forbidden txt ->
      found := (loc, String.concat "." (components txt)) :: !found
    | _ -> default.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    match m.pmod_desc with
    | Pmod_functor _ -> ()
    | _ -> default.module_expr self m
  in
  let iter = { default with expr; module_expr } in
  iter.structure iter structure;
  List.rev !found

let parse file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf file;
      Parse.implementation lexbuf)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let count = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun ((loc : Location.t), name) ->
          incr count;
          Printf.printf "%s:%d: module-level %s\n" file loc.loc_start.pos_lnum
            name)
        (offences (parse file)))
    files;
  if !count > 0 then exit 1
