(** Growable polymorphic vector.  A [dummy] element fills unused
    capacity, keeping the implementation free of [Obj] tricks. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] — the dummy is stored in unused slots. *)

val size : 'a t -> int
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
