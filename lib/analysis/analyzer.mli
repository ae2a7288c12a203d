(** The analyzer pipeline: templates -> symbolic footprints -> static
    dependency graph -> dangerous structures + session-guarantee flags,
    packaged as a single report the CLI, the bench target and the
    cross-validation tests all consume.

    The report is an over-approximation with a soundness contract, checked
    against the dynamic layer by the tests:
    - every serialization cycle the dynamic test [Mvsg.serialization_cycle]
      (examples/serializability) can find on instances of the templates is
      {!covers}-ed by a statically reported dangerous structure;
    - every data-dependent session inversion observable under weak SI
      corresponds to a session flag whose [needs] guarantee prevents it. *)

type report = {
  workload : string;
  guarantee : Lsr_core.Session.guarantee;
      (** the guarantee the session pass judges flags against *)
  sdg : Sdg.t;
  dangerous : Sdg.dangerous list;
  session_flags : Session_pass.flag list;
  unprevented : Session_pass.flag list;
      (** session flags not prevented at [guarantee] *)
}

(** [run ?guarantee ~workload templates] performs the full static analysis.
    [guarantee] defaults to {!Lsr_core.Session.Weak} — plain lazy SI with no
    session ordering, the paper's baseline. *)
val run :
  ?guarantee:Lsr_core.Session.guarantee ->
  workload:string ->
  Template.t list ->
  report

(** [covers report names] — do the templates [names] already contain a
    dangerous structure among themselves? The cross-validation harness calls
    this with the template names participating in a dynamic cycle: soundness
    demands it be [true] for every cycle the dynamic checker reports. *)
val covers : report -> string list -> bool

(** Canonical ids of the report's dangerous structures (allowlist keys),
    each prefixed with the workload name, e.g.
    ["write_skew:check_then_sign_off_x>check_then_sign_off_y>check_then_sign_off_x"]. *)
val dangerous_ids : report -> string list

(** Deterministic human-readable report. *)
val render : report -> string

(** The report as JSON for {!Lsr_obs.Json.to_string} export. *)
val to_json : report -> Lsr_obs.Json.t
