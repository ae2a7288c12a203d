open Lsr_sql

type key =
  | Const of string
  | Param of string

type region =
  | Exact of key
  | Range of Ast.cond
  | Scan

type access = {
  table : string;
  region : region;
}

type footprint = {
  reads : access list;
  writes : access list;
}

let empty = { reads = []; writes = [] }

let param_of_text s =
  if String.length s >= 2 && s.[0] = ':' then
    Some (String.sub s 1 (String.length s - 1))
  else None

(* Mirrors [Executor.pk_of_row]: TEXT and INT literals make storage keys. *)
let key_of_literal = function
  | Ast.Text s -> (
    match param_of_text s with
    | Some p -> Some (Param p)
    | None -> Some (Const s))
  | Ast.Int i -> Some (Const (string_of_int i))
  | Ast.Float _ | Ast.Bool _ | Ast.Null -> None

(* The AND spine of a condition: conjuncts usable for classification.
   Disjunctions and negations are opaque (dropping them only widens the
   region, which is the safe direction). *)
let rec conjuncts = function
  | Ast.And (a, b) -> conjuncts a @ conjuncts b
  | c -> [ c ]

(* [Exact] when the AND spine contains a pk-equality conjunct, [Scan] for
   TRUE, [Range] otherwise. *)
let region_of_where where =
  let pk_eq =
    List.find_map
      (function
        | Ast.Cmp { column = "pk"; op = Ast.Eq; value } -> key_of_literal value
        | _ -> None)
      (conjuncts where)
  in
  match pk_eq with
  | Some key -> Exact key
  | None -> ( match where with Ast.True -> Scan | cond -> Range cond)

let access table where = { table; region = region_of_where where }

let equal_key a b =
  match (a, b) with
  | Const x, Const y -> String.equal x y
  | Param x, Param y -> String.equal x y
  | Const _, Param _ | Param _, Const _ -> false

let equal_region a b =
  match (a, b) with
  | Exact x, Exact y -> equal_key x y
  | Scan, Scan -> true
  | Range x, Range y -> x = y
  | (Exact _ | Range _ | Scan), _ -> false

let equal_access a b = String.equal a.table b.table && equal_region a.region b.region

let dedup accesses =
  List.fold_left
    (fun acc a -> if List.exists (equal_access a) acc then acc else a :: acc)
    [] accesses
  |> List.rev

let union a b =
  { reads = dedup (a.reads @ b.reads); writes = dedup (a.writes @ b.writes) }

let statement_footprint = function
  | Ast.Select { table; where; _ } ->
    { reads = [ access table where ]; writes = [] }
  | Ast.Insert { table; row } ->
    let region =
      match List.assoc_opt "pk" row with
      | Some lit -> (
        match key_of_literal lit with Some k -> Exact k | None -> Scan)
      | None -> Scan (* rejected at run time; assume anything *)
    in
    { reads = []; writes = [ { table; region } ] }
  | Ast.Update { table; where; _ } ->
    (* The matched rows are both read (the search evaluates the old
       version) and written (a new version is installed). *)
    { reads = [ access table where ]; writes = [ access table where ] }
  | Ast.Delete { table; where } ->
    { reads = [ access table where ]; writes = [ access table where ] }
  | Ast.Explain _ -> empty (* EXPLAIN never executes its statement *)

(* A predicate or scan access evaluates its condition against every row of
   the table (the executor's row_scan reads each one), so it conflicts with
   any access to the same table. Only two distinct constant keys are
   provably disjoint. *)
let may_overlap a b =
  String.equal a.table b.table
  &&
  match (a.region, b.region) with
  | Exact (Const x), Exact (Const y) -> String.equal x y
  | Exact _, Exact _ -> true
  | (Range _ | Scan), _ | _, (Range _ | Scan) -> true

(* --- Parameters and instantiation ------------------------------------------ *)

let literal_params lit =
  match lit with Ast.Text s -> Option.to_list (param_of_text s) | _ -> []

let rec cond_params = function
  | Ast.True -> []
  | Ast.Cmp { value; _ } -> literal_params value
  | Ast.And (a, b) | Ast.Or (a, b) -> cond_params a @ cond_params b
  | Ast.Not a -> cond_params a

let rec statement_params_raw = function
  | Ast.Select { where; having; _ } -> cond_params where @ cond_params having
  | Ast.Insert { row; _ } -> List.concat_map (fun (_, l) -> literal_params l) row
  | Ast.Update { set; where; _ } ->
    List.concat_map (fun (_, l) -> literal_params l) set @ cond_params where
  | Ast.Delete { where; _ } -> cond_params where
  | Ast.Explain inner -> statement_params_raw inner

let statement_params stmt =
  List.fold_left
    (fun acc p -> if List.mem p acc then acc else p :: acc)
    [] (statement_params_raw stmt)
  |> List.rev

let bind_literal binding lit =
  match lit with
  | Ast.Text s -> (
    match param_of_text s with
    | None -> lit
    | Some p -> (
      match List.assoc_opt p binding with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Symbolic.bind: unbound parameter :%s" p)))
  | _ -> lit

let rec bind_cond binding = function
  | Ast.True -> Ast.True
  | Ast.Cmp { column; op; value } ->
    Ast.Cmp { column; op; value = bind_literal binding value }
  | Ast.And (a, b) -> Ast.And (bind_cond binding a, bind_cond binding b)
  | Ast.Or (a, b) -> Ast.Or (bind_cond binding a, bind_cond binding b)
  | Ast.Not a -> Ast.Not (bind_cond binding a)

let rec bind binding = function
  | Ast.Select s ->
    Ast.Select
      { s with where = bind_cond binding s.where; having = bind_cond binding s.having }
  | Ast.Insert { table; row } ->
    Ast.Insert
      { table; row = List.map (fun (c, l) -> (c, bind_literal binding l)) row }
  | Ast.Update { table; set; where } ->
    Ast.Update
      {
        table;
        set = List.map (fun (c, l) -> (c, bind_literal binding l)) set;
        where = bind_cond binding where;
      }
  | Ast.Delete { table; where } ->
    Ast.Delete { table; where = bind_cond binding where }
  | Ast.Explain inner -> Ast.Explain (bind binding inner)

(* --- Printing ---------------------------------------------------------------- *)

let pp_key ppf = function
  | Const k -> Format.fprintf ppf "pk='%s'" k
  | Param p -> Format.fprintf ppf "pk=:%s" p

let pp_access ppf a =
  match a.region with
  | Exact k -> Format.fprintf ppf "%s[%a]" a.table pp_key k
  | Range cond -> Format.fprintf ppf "%s[%a]" a.table Ast.pp_cond cond
  | Scan -> Format.fprintf ppf "%s[*]" a.table

let access_to_string a = Format.asprintf "%a" pp_access a
