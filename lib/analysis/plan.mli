(** Static workload planner: per-template guarantee/fence assignment,
    derived entirely from the static analysis.

    The session-guarantee ladder prices a whole workload at its weakest
    safe level; the planner prices each template separately. A
    {!Session_pass.flag} binds to the read-only template that observes the
    inversion, so the minimal assignment gives every read-only template the
    weakest guarantee preventing {e its} flags (updates always run at the
    primary and get [Weak]), realized as a per-template
    [Session_seq] fence over an ambient [Weak] system — the mechanism PR 7
    built ({!Lsr_core.Session.fence}). The cross-validation tests replay
    both directions: the inferred plan produces clean checker reports, and
    any strictly weaker assignment at a flagged template reproduces the
    predicted inversion.

    Dangerous structures (write skew) are {e residual}: session guarantees
    order a session against itself and cannot prevent cross-session
    anomalies, so the plan lists them for allowlisting or
    first-committer-wins redesign rather than claiming coverage. *)

type assignment = {
  template : string;
  read_only : bool;
  level : Lsr_core.Session.guarantee;
      (** weakest guarantee preventing every flag observed at this template *)
  fence : Lsr_core.Session.fence option;
      (** [Some Session_seq] iff [level > Weak]: the static realization of
          the level on an ambient-[Weak] system *)
  flags : Session_pass.flag list;  (** the flags this assignment prevents *)
  why : string;  (** human-readable witness *)
}

type t = {
  workload : string;
  uniform : Lsr_core.Session.guarantee;
      (** the whole-workload weakest safe guarantee, for comparison *)
  assignments : assignment list;  (** sorted by template name *)
  residual : Sdg.dangerous list;
      (** dangerous structures no session assignment can prevent *)
}

(** [infer ~workload templates] runs the full pipeline (SDG, session
    pass).
    @raise Template.Duplicate_template as {!Sdg.build}. *)
val infer : workload:string -> Template.t list -> t

(** Sum of the guarantee prices over read-only templates under the mixed
    plan. The price ladder is [Weak]=0, [Prefix_consistent]=1,
    [Strong_session]=2, [Strong]=3: each step buys the reader another
    blocking condition. *)
val mixed_cost : t -> int

(** Same sum if every read-only template ran at [t.uniform]. *)
val uniform_cost : t -> int

(** Deterministic human-readable plan report (tables + witness lines). *)
val render : t -> string

(** Canonical JSON (keys sorted via {!Lsr_obs.Json.sort_keys}). *)
val to_json : t -> Lsr_obs.Json.t
