(* Growable int vector: a specialization of {!Vec} that avoids the
   polymorphic-array write barrier on the solver's hottest paths
   (trail, literal buffers). *)

type t = {
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; size = 0 }

let size t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

let get t i =
  assert (i >= 0 && i < t.size);
  Array.unsafe_get t.data i

let set t i x =
  assert (i >= 0 && i < t.size);
  Array.unsafe_set t.data i x

let push t x =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1

let pop t =
  assert (t.size > 0);
  t.size <- t.size - 1;
  Array.unsafe_get t.data t.size

let last t = get t (t.size - 1)
let shrink t n = assert (n >= 0 && n <= t.size); t.size <- n

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let x = Array.unsafe_get t.data i in
    if p x then begin
      Array.unsafe_set t.data !j x;
      incr j
    end
  done;
  t.size <- !j

let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.data i)
  done

let to_list t = List.init t.size (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.size

let of_list xs =
  let t = create ~capacity:(max 1 (List.length xs)) () in
  List.iter (push t) xs;
  t

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.size
