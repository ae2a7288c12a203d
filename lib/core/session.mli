(** Session labels, sequence numbers, and the correctness guarantees of the
    paper's performance study (§4, §6), plus the related-work comparison
    point of §7:

    - [Weak] — ALG-WEAK-SI: global weak SI only; transactions never wait, and
      transaction inversions are possible.
    - [Strong_session] — ALG-STRONG-SESSION-SI: one sequence number [seq(c)]
      per session; a read-only transaction from session [c] waits until
      [seq(c) <= seq(DBsec)] at its secondary, preventing inversions within
      the session. The session also never observes snapshots moving
      backwards: the manager tracks the largest snapshot each session has
      read ([read floor]), which matters when a session migrates between
      secondaries.
    - [Prefix_consistent] — PCSI (Elnikety et al, contrasted in §7): a
      transaction must see the effects of earlier {e update} transactions of
      its own session, but no ordering is enforced between two read-only
      transactions — under secondary migration a later read may see an older
      snapshot than an earlier one.
    - [Strong] — ALG-STRONG-SI: a single system-wide session, i.e. a total
      ordering constraint between all transactions.

    The manager is the bookkeeping shared by both the embedded system and the
    simulator: it maps session labels to sequence numbers and answers the
    blocking predicate. *)

open Lsr_storage

type guarantee =
  | Weak
  | Prefix_consistent
  | Strong_session
  | Strong

val guarantee_name : guarantee -> string

(** The three inversion levels, each a subset of the one before: an
    inversion against any earlier transaction, against an earlier
    transaction of the same session, and against an earlier update of the
    same session. *)
type level = All_sessions | In_session | After_update

(** [forbidden_level g] is the inversion level [g] forbids: [Strong]
    forbids every inversion, [Strong_session] those within a session,
    [Prefix_consistent] those after the session's own update, and [Weak]
    none. Every verdict reads the level a guarantee promises from here. *)
val forbidden_level : guarantee -> level option

(** An optional per-read freshness fence, turning the discrete guarantee
    ladder into a continuous staleness/latency dial:

    - [Exact ts] — the snapshot must include the primary commit [ts];
    - [Max_age d] — the snapshot may be at most [d] units of virtual time
      stale, resolved against the primary's commit {!type:clock} into the
      largest commit timestamp older than [now - d] (the commit-visibility
      horizon of Minnal/SCAR);
    - [Session_seq] — the snapshot must be at least as fresh as the
      session's own [seq(c)] and read floor. Under any ambient guarantee
      this reproduces ALG-STRONG-SESSION-SI for the fenced reads, because
      {!note_read} keeps the read floor for [Session_seq]-fenced reads even
      when the guarantee alone would not.

    A fence only ever strengthens the ambient guarantee: the effective
    requirement is the [max] of both thresholds. *)
type fence =
  | Exact of Timestamp.t
  | Max_age of float
  | Session_seq

val fence_to_string : fence -> string

(** Parses the CLI syntax [exact:<ts> | age:<delta> | session]. *)
val fence_of_string : string -> (fence, string) result

val pp_fence : Format.formatter -> fence -> unit

(** The primary's commit clock: an append-only monotone map from commit
    timestamp to virtual commit time. [Max_age] fences are resolved against
    it; {!Watchdog.replay} reads it to audit committed fenced reads. *)
type clock

val clock_create : unit -> clock

(** [clock_note c ~commit_ts ~at] appends one primary commit. Both
    coordinates must be monotone ([invalid_arg] otherwise). *)
val clock_note : clock -> commit_ts:Timestamp.t -> at:float -> unit

(** [clock_horizon c ~cutoff] is the largest commit timestamp whose commit
    time is [<= cutoff] ([Timestamp.zero] if none): the visibility horizon a
    snapshot must reach to be no staler than [cutoff]. *)
val clock_horizon : clock -> cutoff:float -> Timestamp.t

(** [clock_time_of c ts] is the recorded commit time of [ts], if any. *)
val clock_time_of : clock -> Timestamp.t -> float option

(** [clock_freshness c ~snapshot ~now] is [(age, missed)] for a snapshot
    that reflects primary commits up to [snapshot]: [missed] is the number
    of commits in [c] after [snapshot] (all of them when [snapshot] is not
    in [c], e.g. [Timestamp.zero]), and [age] is [now] minus the commit time
    of [snapshot] — [0.] when nothing is missed, [now] when [snapshot] is
    not in [c]. *)
val clock_freshness :
  clock -> snapshot:Timestamp.t -> now:float -> float * int

val clock_len : clock -> int

type t

val create : guarantee -> t
val guarantee : t -> guarantee

(** [seq t label] is [seq(c)]: the primary commit timestamp of the last
    update transaction committed by session [c] ([Timestamp.zero] if none). *)
val seq : t -> string -> Timestamp.t

(** [read_floor t label] is the largest snapshot a read-only transaction of
    session [c] has observed (tracked under [Strong_session] and [Strong]
    only; always [Timestamp.zero] otherwise). *)
val read_floor : t -> string -> Timestamp.t

(** [note_update_commit t ~label ~commit_ts] records that session [label]
    committed an update transaction at the primary with [commit_ts]. *)
val note_update_commit : t -> label:string -> commit_ts:Timestamp.t -> unit

(** [note_read t ~label ~snapshot] records the snapshot a read-only
    transaction of session [label] observed. The read floor rises under
    [Strong_session]/[Strong], and also when the read carried a
    [Session_seq] fence (no-op otherwise). *)
val note_read : ?fence:fence -> t -> label:string -> snapshot:Timestamp.t -> unit

(** [fence_floor ?fence clock ~now] is the part of a fence resolved once,
    when its read is submitted at [now], so blocking does not move it:
    [Exact ts] is [ts], [Max_age d] the horizon of [clock] at [now - d]
    (the Minnal per-statement visibility horizon [B]), and no fence or
    [Session_seq] is [Timestamp.zero]. *)
val fence_floor : ?fence:fence -> clock -> now:float -> Timestamp.t

(** [read_threshold ?fence t ~label ~floor] is the live threshold of a
    read-only transaction from session [label] whose fence resolved to
    [floor] ({!fence_floor}): the smallest [seq(DBsec)] at which it may
    start, the [max] of the guarantee's part
    - [Weak]: [Timestamp.zero] (never waits);
    - [Prefix_consistent]: [seq(c)];
    - [Strong_session] / [Strong]: [max (seq c) (read_floor c)];

    and the fence's part: [floor] for [Exact] and [Max_age], and
    [max (seq c) (read_floor c)] for [Session_seq]. The session's parts
    are read at each call: under a shared session label they can rise
    while the read waits. Monotone in time, which lets blocked readers
    wait on a threshold queue instead of re-polling. *)
val read_threshold :
  ?fence:fence -> t -> label:string -> floor:Timestamp.t -> Timestamp.t
