type t = { mutable entries : Flow_state.t array; mutable size : int }

let create () = { entries = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let index_of t flow_id =
  let i = ref 0 in
  while !i < t.size && (Array.unsafe_get t.entries !i).Flow_state.flow_id <> flow_id do
    incr i
  done;
  if !i < t.size then !i else -1

let mem t flow_id = index_of t flow_id >= 0

let ensure_room t filler =
  if Array.length t.entries = 0 then t.entries <- Array.make 8 filler
  else if t.size = Array.length t.entries then begin
    let entries = Array.make (2 * t.size) filler in
    Array.blit t.entries 0 entries 0 t.size;
    t.entries <- entries
  end

(* Position at which [state] belongs so order stays sorted by
   criticality (most critical first). *)
let insertion_point t state =
  let i = ref 0 in
  while !i < t.size && Flow_state.compare state (Array.unsafe_get t.entries !i) >= 0 do
    incr i
  done;
  !i

let insert t state =
  assert (not (mem t state.Flow_state.flow_id));
  ensure_room t state;
  let pos = insertion_point t state in
  Array.blit t.entries pos t.entries (pos + 1) (t.size - pos);
  t.entries.(pos) <- state;
  t.size <- t.size + 1;
  pos

let remove_at t i =
  if i < 0 || i >= t.size then invalid_arg "Flow_list.remove_at: out of bounds";
  Array.blit t.entries (i + 1) t.entries i (t.size - i - 1);
  t.size <- t.size - 1

let remove t flow_id =
  let i = index_of t flow_id in
  if i >= 0 then remove_at t i;
  i >= 0

let remove_least_critical t = if t.size > 0 then t.size <- t.size - 1
let clear t = t.size <- 0

let reposition t i =
  let state = t.entries.(i) in
  remove_at t i;
  insert t state

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Flow_list.get: out of bounds";
  t.entries.(i)

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.entries.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.entries.(i)
  done;
  !acc

let sending_count t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if Flow_state.is_sending t.entries.(i) then incr n
  done;
  !n

let total_rate t =
  let sum = ref 0. in
  for i = 0 to t.size - 1 do
    sum := !sum +. t.entries.(i).Flow_state.rate
  done;
  !sum

let is_sorted t =
  let ok = ref true in
  for i = 0 to t.size - 2 do
    if Flow_state.compare t.entries.(i) t.entries.(i + 1) >= 0 then ok := false
  done;
  !ok
