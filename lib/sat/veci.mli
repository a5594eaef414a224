(** Growable int vector, specialized to avoid the polymorphic-array
    write barrier on the solver's hottest paths (trail, literal
    buffers). *)

type t

val create : ?capacity:int -> unit -> t
val size : t -> int
val is_empty : t -> bool
val clear : t -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
val last : t -> int

val shrink : t -> int -> unit
(** Keep only the first [n] elements. *)

val filter_in_place : (int -> bool) -> t -> unit
(** Keep only the elements satisfying the predicate, in order. *)

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val to_array : t -> int array
val of_list : int list -> t
val sort : (int -> int -> int) -> t -> unit
