(** Convenience entry points: parse-and-execute SQL against the replicated
    system or a raw transaction handle.

    Read-only statements run as read-only transactions at the client's
    secondary (subject to the session guarantee); everything else is
    forwarded to the primary as an update transaction.

    Two API layers coexist. The [_typed] functions return a structured
    {!error}, so programmatic callers (the static analyzer, the executor
    harnesses) can distinguish a malformed statement from a semantic
    failure or an aborted transaction without string matching. The legacy
    string-message functions are thin wrappers kept for the shell and the
    examples. *)

(** Everything that can go wrong between a SQL string and a result:
    - [Syntax_error] — the statement did not parse; carries the offending
      input and the parser's message;
    - [Semantic_error] — it parsed but could not execute (missing [pk],
      unknown aggregate column, ...); the surrounding transaction was
      aborted, never half-committed;
    - [Write_conflict] — first-committer-wins abort on the named key;
    - [Forced_abort] — the transaction was aborted on request. *)
type error =
  | Syntax_error of { statement : string; message : string }
  | Semantic_error of string
  | Write_conflict of string
  | Forced_abort

(** Human-readable rendering of an {!error}. *)
val error_message : error -> string

(** [parse_script inputs] parses each statement, failing on the first
    malformed one (with the offending input in the error). *)
val parse_script : string list -> (Ast.statement list, error) result

(** [run_typed system client sql] parses [sql], routes it as a transaction
    of [client]'s session, and returns the result or a structured error. *)
val run_typed :
  Lsr_core.System.t -> Lsr_core.System.client -> string ->
  (Executor.result, error) result

(** {2 Legacy string-message wrappers} *)

(** [exec handle sql] is {!exec_typed} with the error flattened to a
    message. *)
val exec : Lsr_core.Handle.t -> string -> (Executor.result, string) result

(** [run system client sql] is {!run_typed} with the error flattened. *)
val run :
  Lsr_core.System.t -> Lsr_core.System.client -> string ->
  (Executor.result, string) result

(** [run_script system client sqls] is {!run_script_typed} with the error
    flattened. *)
val run_script :
  Lsr_core.System.t -> Lsr_core.System.client -> string list ->
  (Executor.result list, string) result
