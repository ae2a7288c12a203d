(** A growable column of fixed-size chunks, indexed by a dense int: setting
    a slot copies no other, and only the chunks holding a set slot exist.
    [History] keeps a run's transactions as columns, and each {!Mvcc} store
    its versions, over its key dictionary's ids. *)

type 'a t

(** [make fill] is an empty column: every slot reads [fill] until set. *)
val make : 'a -> 'a t

(** Slot [i], or the fill where [i] (any negative [i] too) was never set.
    Allocates nothing. *)
val get : 'a t -> int -> 'a

(** [set c i v] sets slot [i >= 0], allocating its chunk at its first set. *)
val set : 'a t -> int -> 'a -> unit
