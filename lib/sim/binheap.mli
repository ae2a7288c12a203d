(** Array-backed binary min-heap, ordered by a user-supplied comparison.

    Used by {!Resource} for its processor-sharing jobs. The heap is a
    mutable structure; all operations are amortized O(log n) except [peek]
    which is O(1). *)

type 'a t

(** [create ~cmp ~dummy] is an empty heap ordered by [cmp] (a total order;
    the minimum element according to [cmp] is served first). [dummy] fills
    unused slots, so a popped element is not kept reachable by the heap; it
    is never compared or returned. *)
val create : cmp:('a -> 'a -> int) -> dummy:'a -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** [peek h] is the minimum element, or [None] when [h] is empty. *)
val peek : 'a t -> 'a option

(** [pop h] removes and returns the minimum element.
    @raise Invalid_argument when [h] is empty. *)
val pop : 'a t -> 'a

(** [fold h ~init ~f] folds over every element in unspecified order. O(n);
    for sampling aggregate state without disturbing the heap. *)
val fold : 'a t -> init:'acc -> f:('acc -> 'a -> 'acc) -> 'acc
