(* Struct-of-arrays binary min-heap: unboxed float priorities and
   parallel int arrays of insertion stamps and payloads. Priorities
   cross the module boundary through the one-cell [cell] array, so
   neither [push_cell] nor [pop] boxes a float (dune's dev profile
   compiles with -opaque, so a float argument or result of another
   module's function is always boxed). *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
  cell : float array;
}

let create ?(capacity = 256) () =
  let n = max 1 capacity in
  {
    prio = Array.make n 0.;
    seq = Array.make n 0;
    value = Array.make n 0;
    size = 0;
    next_seq = 0;
    cell = [| 0. |];
  }

let length h = h.size
let is_empty h = h.size = 0
let cell h = h.cell

(* Node [i] sorts before node [j] on priority, then on insertion order. *)
let before h i j =
  let pi = Array.unsafe_get h.prio i and pj = Array.unsafe_get h.prio j in
  pi < pj || (pi = pj && Array.unsafe_get h.seq i < Array.unsafe_get h.seq j)

let grow h =
  let n = 2 * Array.length h.prio in
  let prio = Array.make n 0. and seq = Array.make n 0 and value = Array.make n 0 in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.seq 0 seq 0 h.size;
  Array.blit h.value 0 value 0 h.size;
  h.prio <- prio;
  h.seq <- seq;
  h.value <- value

let move h ~src ~dst =
  Array.unsafe_set h.prio dst (Array.unsafe_get h.prio src);
  Array.unsafe_set h.seq dst (Array.unsafe_get h.seq src);
  Array.unsafe_set h.value dst (Array.unsafe_get h.value src)

(* Insert the node staged at index [size] (one past the end). *)
let sift_up h =
  let p = h.prio.(h.size) and s = h.seq.(h.size) and v = h.value.(h.size) in
  let i = ref h.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get h.prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get h.seq parent) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set h.prio !i p;
  Array.unsafe_set h.seq !i s;
  Array.unsafe_set h.value !i v;
  h.size <- h.size + 1

let push_cell h v =
  if h.size = Array.length h.prio then grow h;
  h.prio.(h.size) <- h.cell.(0);
  h.seq.(h.size) <- h.next_seq;
  h.value.(h.size) <- v;
  h.next_seq <- h.next_seq + 1;
  sift_up h

let push h prio v =
  h.cell.(0) <- prio;
  push_cell h v

(* Restore the heap below the root by swapping the root node down. *)
let sift_down h =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.size && before h l !smallest then smallest := l;
    if r < h.size && before h r !smallest then smallest := r;
    if !smallest <> !i then begin
      let p = h.prio.(!i) and s = h.seq.(!i) and v = h.value.(!i) in
      move h ~src:!smallest ~dst:!i;
      h.prio.(!smallest) <- p;
      h.seq.(!smallest) <- s;
      h.value.(!smallest) <- v;
      i := !smallest
    end
    else continue := false
  done

let peek h =
  if h.size = 0 then invalid_arg "Heap.peek: empty heap";
  h.cell.(0) <- h.prio.(0);
  h.value.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  h.cell.(0) <- h.prio.(0);
  let v = h.value.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    move h ~src:h.size ~dst:0;
    sift_down h
  end;
  v

let clear h =
  h.size <- 0;
  h.next_seq <- 0
