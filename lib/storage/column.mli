(** A growable column of 1,024-slot chunks, indexed by a dense int: only
    the chunks holding a set slot exist, and setting a slot copies no
    other but while chunk 0 grows: it starts at 8 slots and doubles up to
    full size, so a small column stays small.
    [History] keeps a run's transactions as columns, and each {!Mvcc} store
    its versions, over its key dictionary's ids. *)

type 'a t

(** [make fill] is an empty column: every slot reads [fill] until set. *)
val make : 'a -> 'a t

(** Slot [i], or the fill where [i] (any negative [i] too) was never set.
    Allocates nothing. *)
val get : 'a t -> int -> 'a

(** [set c i v] sets slot [i >= 0], allocating or growing its chunk. *)
val set : 'a t -> int -> 'a -> unit
