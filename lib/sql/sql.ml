type error =
  | Syntax_error of { statement : string; message : string }
  | Semantic_error of string
  | Write_conflict of string
  | Forced_abort

let error_message = function
  | Syntax_error { statement; message } ->
    Printf.sprintf "syntax error in %S: %s" statement message
  | Semantic_error msg -> msg
  | Write_conflict key ->
    Printf.sprintf "write conflict on %s (first committer wins)" key
  | Forced_abort -> "transaction aborted"

let error_of_abort = function
  | Lsr_storage.Mvcc.Forced -> Forced_abort
  | Lsr_storage.Mvcc.Write_conflict key -> Write_conflict key

let parse_script inputs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | input :: rest -> (
      match Parser.parse input with
      | Error message -> Error (Syntax_error { statement = input; message })
      | Ok stmt -> go (stmt :: acc) rest)
  in
  go [] inputs

(* Parse and execute one statement inside an already open transaction. *)
let exec_typed handle input =
  match Parser.parse input with
  | Error message -> Error (Syntax_error { statement = input; message })
  | Ok stmt -> (
    match Executor.execute handle stmt with
    | Ok result -> Ok result
    | Error msg -> Error (Semantic_error msg))

(* Runs inside an open transaction; a semantic failure raises so the
   surrounding [System.update]/[System.read] aborts instead of committing a
   half-executed script. *)
let execute_all handle stmts = List.map (Executor.execute_exn handle) stmts

(* Several statements inside ONE transaction (the shell's BEGIN ... COMMIT):
   atomically, against a single snapshot, with intermediate results visible
   to later statements (read-your-writes). The transaction is read-only —
   and routed to the client's secondary — only when every statement is. Any
   parse or semantic error aborts the whole transaction. *)
let run_script_typed system client inputs =
  match parse_script inputs with
  | Error e -> Error e
  | Ok stmts ->
    if List.for_all Executor.is_read_only stmts then
      match
        Lsr_core.System.read system client (fun handle ->
            execute_all handle stmts)
      with
      | results -> Ok results
      | exception Executor.Semantic_error msg -> Error (Semantic_error msg)
    else begin
      match
        Lsr_core.System.update system client (fun handle ->
            execute_all handle stmts)
      with
      | Ok results -> Ok results
      | Error reason -> Error (error_of_abort reason)
      | exception Executor.Semantic_error msg -> Error (Semantic_error msg)
    end

let run_typed system client input =
  match Parser.parse input with
  | Error message -> Error (Syntax_error { statement = input; message })
  | Ok stmt ->
    if Executor.is_read_only stmt then
      match
        Lsr_core.System.read system client (fun handle ->
            Executor.execute handle stmt)
      with
      | Ok result -> Ok result
      | Error msg -> Error (Semantic_error msg)
    else begin
      match
        Lsr_core.System.update system client (fun handle ->
            Executor.execute_exn handle stmt)
      with
      | Ok result -> Ok result
      | Error reason -> Error (error_of_abort reason)
      | exception Executor.Semantic_error msg -> Error (Semantic_error msg)
    end

(* Legacy string-message wrappers. The single-statement entry points write
   the syntax message without quoting the input (it is the only statement
   there is); the script one names the offending statement. *)

let short_message = function
  | Syntax_error { message; _ } -> "syntax error: " ^ message
  | e -> error_message e

let exec handle input = Result.map_error short_message (exec_typed handle input)
let run system client input = Result.map_error short_message (run_typed system client input)

let run_script system client inputs =
  Result.map_error error_message (run_script_typed system client inputs)
