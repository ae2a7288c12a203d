open Lsr_sql

type t = {
  name : string;
  statements : Ast.statement list;
  read_only : bool;
  footprint : Symbolic.footprint;
}

(* Routing and footprint derived from the statements. *)
let make ~name statements =
  {
    name;
    statements;
    read_only = List.for_all Executor.is_read_only statements;
    footprint =
      List.fold_left
        (fun acc stmt -> Symbolic.union acc (Symbolic.statement_footprint stmt))
        Symbolic.empty statements;
  }

(* The typed error names the offending statement. *)
let of_sql ~name sqls =
  Result.map (make ~name) (Sql.parse_script sqls)

let of_sql_exn ~name sqls =
  match of_sql ~name sqls with
  | Ok t -> t
  | Error e ->
    failwith (Printf.sprintf "template %s: %s" name (Sql.error_message e))

(* Table name under which raw key-value accesses are modelled. *)
let kv_table = "(kv)"

let kv_access key = { Symbolic.table = kv_table; region = Symbolic.Exact key }

(* The generator draws every key independently from one shared (possibly
   skewed) key space, so symbolically each access is a free parameter: any
   two instances may collide on any key. *)
let txn_gen_templates () =
  [
    {
      name = "txn_gen_read_only";
      statements = [];
      read_only = true;
      footprint =
        { Symbolic.reads = [ kv_access (Symbolic.Param "rkey") ]; writes = [] };
    };
    {
      name = "txn_gen_update";
      statements = [];
      read_only = false;
      footprint =
        {
          Symbolic.reads = [ kv_access (Symbolic.Param "rkey") ];
          writes = [ kv_access (Symbolic.Param "wkey") ];
        };
    };
  ]

exception Duplicate_template of string

(* Template names are SDG node identities: two templates sharing a name
   would silently merge into one node and the analysis would reason about a
   program that does not exist. *)
let check_distinct templates =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.name then raise (Duplicate_template t.name);
      Hashtbl.replace seen t.name ())
    templates

let params t =
  List.fold_left
    (fun acc stmt ->
      List.fold_left
        (fun acc p -> if List.mem p acc then acc else p :: acc)
        acc
        (Symbolic.statement_params stmt))
    [] t.statements
  |> List.rev

let instantiate t binding = List.map (Symbolic.bind binding) t.statements

let pp ppf t =
  Format.fprintf ppf "%s (%s): reads {%s} writes {%s}" t.name
    (if t.read_only then "read-only" else "update")
    (String.concat ", " (List.map Symbolic.access_to_string t.footprint.Symbolic.reads))
    (String.concat ", " (List.map Symbolic.access_to_string t.footprint.Symbolic.writes))
