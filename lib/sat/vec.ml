(* Growable polymorphic vector, used for the solver's PB constraints
   and the proof checker's occurrence lists.  A [dummy] element is
   required to fill unused capacity, which avoids boxing via [Obj]
   tricks and keeps the implementation safe. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ?(capacity = 16) dummy =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size t = t.size

let get t i =
  assert (i >= 0 && i < t.size);
  Array.unsafe_get t.data i

let grow t =
  let n = Array.length t.data in
  let data = Array.make (2 * n) t.dummy in
  Array.blit t.data 0 data 0 n;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc
