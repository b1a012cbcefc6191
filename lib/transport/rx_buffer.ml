(* Reassembly state as sorted, disjoint, non-adjacent received byte
   intervals [lo.(i), hi.(i)), i < n, kept in two growable int arrays.
   In-order arrival extends the last interval in O(1); filling a hole
   costs a binary search plus one blit. Once the arrays have grown to
   the flow's peak hole count, nothing is allocated. Arbitrary segment
   boundaries — e.g. after M-PDQ load rebalancing — are handled
   exactly. *)
type t = {
  mutable size : int;
  capacity : int;
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int;
  mutable received : int;
}

let create ?capacity ~size ~segment () =
  if segment <= 0 then invalid_arg "Rx_buffer.create: segment <= 0";
  let capacity = max size (Option.value capacity ~default:size) in
  { size; capacity; lo = Array.make 4 0; hi = Array.make 4 0; n = 0; received = 0 }

let set_size t size =
  if size < t.received then invalid_arg "Rx_buffer.set_size: below received";
  if size > t.capacity then invalid_arg "Rx_buffer.set_size: beyond capacity";
  t.size <- size

let grow t =
  let cap = 2 * Array.length t.lo in
  let lo = Array.make cap 0 and hi = Array.make cap 0 in
  Array.blit t.lo 0 lo 0 t.n;
  Array.blit t.hi 0 hi 0 t.n;
  t.lo <- lo;
  t.hi <- hi

(* First index i in [from, n) with [a.(i) >= x] ([n] when none); [a]
   is strictly increasing over [0, n). *)
let search (a : int array) ~from ~n (x : int) =
  let l = ref from and r = ref n in
  while !l < !r do
    let m = (!l + !r) lsr 1 in
    if Array.unsafe_get a m >= x then r := m else l := m + 1
  done;
  !l

let on_data t ~seq ~bytes =
  let lo = Int.max 0 seq and hi = Int.min t.size (seq + bytes) in
  if hi > lo then begin
    let n = t.n in
    if n = 0 || lo > t.hi.(n - 1) then begin
      (* Past the last interval: append. *)
      if n = Array.length t.lo then grow t;
      t.lo.(n) <- lo;
      t.hi.(n) <- hi;
      t.n <- n + 1;
      t.received <- t.received + (hi - lo)
    end
    else if lo >= t.lo.(n - 1) then begin
      (* Overlaps or extends the last interval: the in-order case. *)
      let last = t.hi.(n - 1) in
      if hi > last then begin
        t.hi.(n - 1) <- hi;
        t.received <- t.received + (hi - last)
      end
    end
    else begin
      (* Intervals [i, j) touch or overlap [lo, hi): those before [i]
         end strictly left of [lo], those from [j] start strictly right
         of [hi]. *)
      let i = search t.hi ~from:0 ~n lo in
      let j = search t.lo ~from:i ~n (hi + 1) in
      if i = j then begin
        if n = Array.length t.lo then grow t;
        Array.blit t.lo i t.lo (i + 1) (n - i);
        Array.blit t.hi i t.hi (i + 1) (n - i);
        t.lo.(i) <- lo;
        t.hi.(i) <- hi;
        t.n <- n + 1;
        t.received <- t.received + (hi - lo)
      end
      else begin
        let covered = ref 0 in
        for k = i to j - 1 do
          covered := !covered + (t.hi.(k) - t.lo.(k))
        done;
        let mlo = Int.min lo t.lo.(i) and mhi = Int.max hi t.hi.(j - 1) in
        t.lo.(i) <- mlo;
        t.hi.(i) <- mhi;
        Array.blit t.lo j t.lo (i + 1) (n - j);
        Array.blit t.hi j t.hi (i + 1) (n - j);
        t.n <- n - (j - i - 1);
        t.received <- t.received + (mhi - mlo - !covered)
      end
    end
  end

let cumulative_ack t = if t.n > 0 && t.lo.(0) = 0 then t.hi.(0) else 0
let received_bytes t = t.received
let size t = t.size
let complete t = t.received >= t.size
