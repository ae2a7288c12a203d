(** Static shard-partition analysis over symbolic footprints.

    The unit of placement is a {e key region atom}: a [(table, key)] pair
    for every exact constant key any template names, plus one residual
    atom per table whose key space is also reached through parameters,
    predicates or scans. Two atoms {e interfere} when some template may
    touch both in one transaction; splitting them across shards makes that
    template cross-shard. The analysis partitions the atoms into at most
    [shards] shards, greedily minimizing cross-shard {e update} templates
    first (they need a commit protocol; cross-shard reads only need a
    multi-shard snapshot), and emits a routing plan: which shards each
    template touches and whether it is single- or cross-shard.

    This is the static half of ROADMAP's deferred "sharded primaries"
    direction: per-shard sequence vectors only work if the planner can say
    which templates stay single-shard. *)

type atom = {
  table : string;
  key : string option;  (** [None] = the table's residual key region *)
}

(** ["books['k1']"] or ["books[rest]"]. *)
val atom_name : atom -> string

type route = {
  template : string;
  read_only : bool;
  read_shards : int list;
  write_shards : int list;
  shards : int list;  (** union of the two, sorted *)
  cross_shard : bool;
}

type t = {
  requested : int;  (** shard budget asked for (≥ 1) *)
  shards : atom list list;
      (** the partition, each shard's atoms sorted; shards sorted by first
          atom. May be shorter than [requested] when there are fewer atoms. *)
  routes : route list;  (** sorted by template name *)
  cross_shard_updates : string list;
  cross_shard_reads : string list;
}

(** [analyze ~shards templates] (default [shards = 2]). Deterministic:
    same templates, same partition, byte for byte. *)
val analyze : ?shards:int -> Template.t list -> t

val shard_count : t -> int
val route : t -> string -> route option
