(** Static dependency graph (SDG) over transaction templates, after Fekete
    et al. ("Making snapshot isolation serializable") as summarized by
    Raad/Lahav/Vafeiadis's declarative SI characterization: anomalies are a
    property of the program, not the run.

    Nodes are templates; a directed edge [A -dep-> B] means instances of
    [A] and [B] {e can} stand in that dependency at run time, derived from
    symbolic footprint overlap:
    - [Ww]: a write of [A] may overlap a write of [B] (commit order can put
      [A] first);
    - [Wr]: a write of [A] may be read by [B];
    - [Rw] (anti-dependency): a read of [A] may be overwritten by [B] —
      under SI the only edge that can point "against" commit order.

    Ordered pairs include [A = B]: two concurrent instances of one template
    conflict with themselves exactly like two distinct templates do.

    A {e dangerous structure} is a cycle containing two {e consecutive} rw
    edges [T1 -rw-> T2 -rw-> T3] (T1 and T3 may coincide) plus a path from
    [T3] back to [T1]. Fekete's theorem: an SI history can only be
    non-serializable if its static graph has one, so a workload whose SDG is
    free of dangerous structures runs serializably under SI — and every
    serialization cycle the dynamic graph test [Mvsg]
    ([examples/serializability]) finds must be covered by one (asserted by
    the cross-validation tests). *)

type dep =
  | Ww
  | Wr
  | Rw

type edge = {
  src : string;
  dst : string;
  dep : dep;
  src_access : Symbolic.access;  (** the overlapping accesses witnessing the edge *)
  dst_access : Symbolic.access;
  vulnerable : bool;
      (** For [Rw] edges: can the edge connect two {e concurrent} committed
          instances? [false] when the reader also writes the same exact key
          it read (then any witnessing instance pair also write-conflicts,
          and first-committer-wins forbids both committing concurrently) —
          Fekete's reason TPC-C-style read-modify-write is safe. Always
          [true] for [Ww]/[Wr]. Only vulnerable rw edges participate in
          dangerous structures. *)
}

type t = {
  templates : Template.t list;
  edges : edge list;
}

val dep_name : dep -> string

(** [build templates] — edges are returned sorted by [(src, dst, dep)], so
    every report derived from the graph is byte-stable.
    @raise Template.Duplicate_template when two templates share a name
    (they would silently merge into one node). *)
val build : Template.t list -> t

(** [restrict t names] keeps only nodes in [names] and edges between them
    (used to check that a dynamic cycle's templates already contain a
    dangerous structure). *)
val restrict : t -> string list -> t

(** A witnessed dangerous structure: the pivot's incoming and outgoing rw
    anti-dependencies and a closing path [T3 -> ... -> T1] (node names,
    endpoints included; a single shared node when T3 = T1). *)
type dangerous = {
  rw_in : edge;   (** T1 -rw-> pivot *)
  rw_out : edge;  (** pivot -rw-> T3 *)
  closing : string list;
}

(** All dangerous structures, one per distinct (T1, pivot, T3) triple,
    sorted by that triple. *)
val dangerous_structures : t -> dangerous list

(** Canonical id, e.g. ["check_x>check_y>check_x"] — the allowlist key. *)
val dangerous_id : dangerous -> string

(** Multi-line human-readable explanation naming the tables, keys and
    conditions responsible. *)
val explain : dangerous -> string

val pp_edge : Format.formatter -> edge -> unit
