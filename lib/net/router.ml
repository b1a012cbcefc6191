type t = {
  topo : Topology.t;
  (* Adjacency of every node, sorted by (peer, link id) so that ECMP
     choices do not depend on link insertion order: the hops of node
     [u] are [peer.(k)], [link.(k)] for [off.(u) <= k < off.(u+1)]. *)
  off : int array;
  peer : int array;
  link : int array;
  (* dst -> distance-to-dst for every node, computed by reverse BFS.
     The graph is symmetric (duplex links) so forward BFS suffices. *)
  dist_cache : (int, int array) Hashtbl.t;
  queue : int array; (* BFS scratch, one slot per node *)
}

let create topo =
  let n = Topology.node_count topo in
  let off = Array.make (n + 1) 0 in
  let hops =
    Array.init n (fun u ->
        let a = Array.of_list (Topology.links_from topo u) in
        Array.sort compare a;
        off.(u + 1) <- off.(u) + Array.length a;
        a)
  in
  let peer = Array.make off.(n) 0 and link = Array.make off.(n) 0 in
  Array.iteri
    (fun u a ->
      Array.iteri
        (fun i (v, l) ->
          peer.(off.(u) + i) <- v;
          link.(off.(u) + i) <- l)
        a)
    hops;
  { topo; off; peer; link; dist_cache = Hashtbl.create 64; queue = Array.make n 0 }

let invalidate t = Hashtbl.reset t.dist_cache

(* A link only carries traffic while administratively up; distance
   tables and next hops ignore down links, so recomputed routes steer
   around failures (call {!invalidate} after a status change). *)
let usable t link_id = Link.is_up (Topology.link t.topo link_id)

let bfs_from t root =
  let n = Topology.node_count t.topo in
  let dist = Array.make n max_int and queue = t.queue in
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.peer.(k) in
      if dist.(v) = max_int && usable t t.link.(k) then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let dist_to t dst =
  match Hashtbl.find_opt t.dist_cache dst with
  | Some d -> d
  | None ->
      let d = bfs_from t dst in
      Hashtbl.add t.dist_cache dst d;
      d

let distance t ~src ~dst =
  let d = (dist_to t dst).(src) in
  if d = max_int then raise Not_found else d

(* Deterministic integer mixing for ECMP choice. *)
let hash3 a b c =
  let h = ref 0x9E3779B9 in
  let mix x =
    h := (!h lxor (x + 0x7F4A7C15 + (!h lsl 6) + (!h lsr 2))) land max_int
  in
  mix a;
  mix b;
  mix c;
  !h

(* Adjacency index [k] of [node] is a next hop towards the destination
   whose distance table is [dist]. *)
let is_next_hop t dist node k =
  dist.(t.peer.(k)) = dist.(node) - 1 && usable t t.link.(k)

let width t dist node =
  let n = ref 0 in
  for k = t.off.(node) to t.off.(node + 1) - 1 do
    if is_next_hop t dist node k then incr n
  done;
  !n

(* The adjacency index of the next hop the walk takes at [node]: the
   [hash3 choice node dst mod width]-th next hop in (peer, link id)
   order. *)
let next_hop t dist ~node ~dst ~choice =
  let n = width t dist node in
  if n = 0 then raise Not_found;
  let pick = ref (hash3 choice node dst mod n) and k = ref t.off.(node) in
  while !pick > 0 || not (is_next_hop t dist node !k) do
    if is_next_hop t dist node !k then decr pick;
    incr k
  done;
  !k

(* Walk one shortest path from a reachable [src], calling [visit i k]
   for the adjacency index [k] of its [i]-th hop. Each hop lowers the
   distance by one, so the path has exactly [distance] hops. *)
let walk t ~src ~dst ~choice visit =
  let dist = dist_to t dst in
  let node = ref src in
  for i = 0 to dist.(src) - 1 do
    let k = next_hop t dist ~node:!node ~dst ~choice in
    visit i k;
    node := t.peer.(k)
  done

let path t ~src ~dst ~choice =
  let hops = distance t ~src ~dst in
  let nodes = Array.make (hops + 1) src in
  walk t ~src ~dst ~choice (fun i k -> nodes.(i + 1) <- t.peer.(k));
  nodes

let path_links t ~src ~dst ~choice =
  let links = Array.make (distance t ~src ~dst) 0 in
  walk t ~src ~dst ~choice (fun i k -> links.(i) <- t.link.(k));
  links

let ecmp_width t ~src ~dst =
  if src = dst then 0 else width t (dist_to t dst) src
