(* Tests for pdq_net + pdq_topo: links, queues, topologies, routing. *)

module Sim = Pdq_engine.Sim
module Units = Pdq_engine.Units
module Rng = Pdq_engine.Rng
module Packet = Pdq_net.Packet
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Router = Pdq_net.Router
module Builder = Pdq_topo.Builder

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)

let mk_packet ?(bytes = 1500) ~now () =
  Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data
    ~payload_bytes:(bytes - Packet.header_bytes) ~seq:0 ~extra_header:0
    ~payload:Packet.No_payload ~now

(* ------------------------------------------------------------------ *)
(* Link *)

let mk_link ?(rate = Units.gbps 1.) ?(buffer = Units.mbyte 4.) sim =
  Link.create ~sim ~id:0 ~src:0 ~dst:1 ~rate ~prop_delay:(Units.us 0.1)
    ~proc_delay:(Units.us 25.) ~buffer_bytes:buffer ()

let test_link_delivery_time () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let arrival = ref nan in
  Link.set_receiver link (fun _ -> arrival := Sim.now sim);
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  (* 1500 B at 1 Gbps = 12 us serialization + 0.1 us prop + 25 us proc. *)
  let expected = 12e-6 +. 0.1e-6 +. 25e-6 in
  if not (feq expected !arrival) then
    Alcotest.failf "arrival %.9f, expected %.9f" !arrival expected

let test_link_serialization_fifo () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let order = ref [] in
  Link.set_receiver link (fun p -> order := p.Packet.seq :: !order);
  for i = 0 to 4 do
    Link.send link
      (Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data ~payload_bytes:1460
         ~seq:i ~extra_header:0 ~payload:Packet.No_payload ~now:0.)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check int) "all delivered" 5 (Link.delivered link)

let test_link_tail_drop () =
  let sim = Sim.create () in
  (* Buffer fits only two full packets. *)
  let link = mk_link ~buffer:3200 sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  for _ = 1 to 5 do
    Link.send link (mk_packet ~now:0. ())
  done;
  Sim.run sim;
  Alcotest.(check int) "delivered limited by buffer" 2 !got;
  Alcotest.(check int) "drops counted" 3 (Link.dropped link)

(* The link's queues are power-of-two rings that start at 16 slots.
   Bursts of up to 40 mixed-size packets arrive while earlier ones
   are still serializing and propagating, so the tx ring grows and
   both rings wrap around repeatedly. A reference FIFO mirrors what
   the link should hold: every offered packet is either tail-dropped
   (exactly when it would overflow the buffer) or queued, the tap
   pops it at the end of serialization, and the receiver must see the
   accepted packets in offer order. *)
let test_link_ring_fifo () =
  let sim = Sim.create () in
  let buffer = 30_000 in
  let link = mk_link ~buffer sim in
  let rng = Rng.create 7 in
  let model = Queue.create () and model_bytes = ref 0 in
  let accepted = ref [] and received = ref [] and peak = ref 0 in
  let exact () =
    peak := max !peak (Queue.length model);
    Alcotest.(check int) "queue_packets" (Queue.length model) (Link.queue_packets link);
    Alcotest.(check int) "queue_bytes" !model_bytes (Link.queue_bytes link)
  in
  Link.set_receiver link (fun p -> received := p.Packet.seq :: !received);
  Link.on_transmit link (fun ~now:_ ~bytes ->
      let seq, b = Queue.pop model in
      Alcotest.(check int) (Printf.sprintf "bytes of %d" seq) b bytes;
      model_bytes := !model_bytes - b;
      exact ());
  let next_seq = ref 0 in
  let offer () =
    let bytes = Packet.header_bytes + Rng.int rng 1461 in
    let seq = !next_seq in
    incr next_seq;
    let drops = Link.dropped_overflow link in
    Link.send link
      (Packet.make ~flow:0 ~src:0 ~dst:1 ~kind:Packet.Data
         ~payload_bytes:(bytes - Packet.header_bytes) ~seq ~extra_header:0
         ~payload:Packet.No_payload ~now:(Sim.now sim));
    let overflow = !model_bytes + bytes > buffer in
    Alcotest.(check int)
      (Printf.sprintf "packet %d dropped iff it overflows" seq)
      (if overflow then drops + 1 else drops)
      (Link.dropped_overflow link);
    if not overflow then begin
      Queue.push (seq, bytes) model;
      model_bytes := !model_bytes + bytes;
      accepted := seq :: !accepted
    end;
    exact ()
  in
  for k = 0 to 199 do
    let burst = 1 + (k * 13 mod 40) in
    ignore
      (Sim.schedule sim ~delay:(float_of_int k *. 60e-6) (fun () ->
           for _ = 1 to burst do
             offer ()
           done))
  done;
  Sim.run sim;
  exact ();
  Alcotest.(check bool) "some packets tail-dropped" true (Link.dropped_overflow link > 0);
  Alcotest.(check bool) "queue outgrew the initial ring" true (!peak > 16);
  Alcotest.(check (list int)) "delivered in offer order" (List.rev !accepted)
    (List.rev !received)

let test_link_queue_accounting () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.set_receiver link (fun _ -> ());
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Alcotest.(check int) "queued bytes" 3000 (Link.queue_bytes link);
  Sim.run sim;
  Alcotest.(check int) "drained" 0 (Link.queue_bytes link)

let test_link_loss () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.set_loss link ~rate:0.5 ~rng:(Rng.create 42);
  for _ = 1 to 1000 do
    Link.send link (mk_packet ~now:0. ())
  done;
  Sim.run sim;
  let frac = float_of_int !got /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "~half delivered (got %.3f)" frac)
    true
    (frac > 0.42 && frac < 0.58)

(* Down-link semantics: drops happen at admission (counted as
   dropped_down), packets already queued still drain, and bringing the
   link back up restores delivery. *)
let test_link_down_up () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Alcotest.(check bool) "starts up" true (Link.is_up link);
  Link.set_up link false;
  Alcotest.(check int) "queued survive the failure" 3000
    (Link.queue_bytes link);
  Link.send link (mk_packet ~now:0. ());
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "queued packets drained" 2 !got;
  Alcotest.(check int) "admission drops counted" 2 (Link.dropped_down link);
  Alcotest.(check int) "no loss drops" 0 (Link.dropped_loss link);
  Link.set_up link true;
  Link.send link (mk_packet ~now:(Sim.now sim) ());
  Sim.run sim;
  Alcotest.(check int) "delivery restored" 3 !got

(* Gilbert-Elliott: deterministic for a fixed seed, and burstier than
   Bernoulli at the same average loss — long loss-free stretches
   alternating with black-out runs. *)
let test_link_gilbert_loss () =
  let run seed =
    let sim = Sim.create () in
    let link = mk_link sim in
    let delivered = ref [] in
    let n = ref 0 in
    Link.set_receiver link (fun _ -> delivered := !n :: !delivered);
    Link.set_loss_model link
      (Link.Gilbert
         { Link.p_gb = 0.01; p_bg = 0.1; loss_good = 0.; loss_bad = 1. })
      ~rng:(Rng.create seed);
    for i = 1 to 2000 do
      n := i;
      Link.send link (mk_packet ~now:(Sim.now sim) ());
      Sim.run sim
    done;
    List.rev !delivered
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check bool) "same seed, same drop pattern" true (a = b);
  let frac = float_of_int (List.length a) /. 2000. in
  (* Stationary bad-state probability 0.01/(0.01+0.1) ~ 9%. *)
  Alcotest.(check bool)
    (Printf.sprintf "~91%% delivered (got %.3f)" frac)
    true
    (frac > 0.82 && frac < 0.97);
  (* Burstiness: consecutive losses must occur far more often than the
     squared loss rate would allow under Bernoulli. *)
  let losses = ref 0 and paired = ref 0 in
  let prev_lost = ref false in
  let delivered = Array.make 2001 false in
  List.iter (fun i -> delivered.(i) <- true) a;
  for i = 1 to 2000 do
    if not delivered.(i) then begin
      incr losses;
      if !prev_lost then incr paired
    end;
    prev_lost := not delivered.(i)
  done;
  Alcotest.(check bool) "losses come in runs" true
    (float_of_int !paired > 0.5 *. float_of_int !losses)

let test_link_tap () =
  let sim = Sim.create () in
  let link = mk_link sim in
  Link.set_receiver link (fun _ -> ());
  let taps = ref 0 in
  Link.on_transmit link (fun ~now:_ ~bytes -> taps := !taps + bytes);
  Link.send link (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "tap saw the bytes" 1500 !taps;
  Alcotest.(check int) "bytes_sent" 1500 (Link.bytes_sent link)

(* ------------------------------------------------------------------ *)
(* Topology wiring *)

let test_no_handler_carries_node_id () =
  let sim = Sim.create () in
  let topo = Topology.create ~sim () in
  let a = Topology.add_host topo in
  let b = Topology.add_host topo in
  Topology.connect topo a b;
  (* [b] never got a handler: delivery must raise [No_handler b], not a
     generic failure, so the wiring bug names the culprit node. *)
  Link.send (Topology.link_to topo ~src:a ~dst:b) (mk_packet ~now:0. ());
  (match Sim.run sim with
  | () -> Alcotest.fail "expected No_handler"
  | exception Topology.No_handler id ->
      Alcotest.(check int) "exception names the node" b id);
  (* Installing the handler afterwards makes delivery work. *)
  let got = ref 0 in
  Topology.set_handler topo b (fun _ -> incr got);
  Link.send (Topology.link_to topo ~src:a ~dst:b) (mk_packet ~now:0. ());
  Sim.run sim;
  Alcotest.(check int) "delivered after set_handler" 1 !got

(* ------------------------------------------------------------------ *)
(* Topologies *)

let test_single_bottleneck () =
  let sim = Sim.create () in
  let built, rx = Builder.single_bottleneck ~sim ~senders:3 () in
  Alcotest.(check int) "hosts" 4 (Array.length built.Builder.hosts);
  Alcotest.(check int) "nodes" 5 (Topology.node_count built.Builder.topo);
  Alcotest.(check bool) "receiver is a host" true
    (Topology.kind built.Builder.topo rx = Topology.Host)

let test_single_rooted_tree () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  (* 1 root + 4 ToR + 12 servers = 17 nodes (the paper's topology). *)
  Alcotest.(check int) "17 nodes" 17 (Topology.node_count built.Builder.topo);
  Alcotest.(check int) "12 servers" 12 (Array.length built.Builder.hosts);
  let racks =
    Array.map (Topology.rack_of built.Builder.topo) built.Builder.hosts
  in
  Alcotest.(check int) "4 racks" 4
    (List.length (List.sort_uniq compare (Array.to_list racks)))

let test_fat_tree_counts () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  Alcotest.(check int) "k=4 has 16 hosts" 16 (Array.length built.Builder.hosts);
  (* 4 cores + 4 pods * (2 agg + 2 edge) = 20 switches. *)
  Alcotest.(check int) "nodes" 36 (Topology.node_count built.Builder.topo)

let test_fat_tree_for_servers () =
  let sim = Sim.create () in
  let built = Builder.fat_tree_for_servers ~sim ~servers:100 () in
  Alcotest.(check bool) "at least 100 hosts" true
    (Array.length built.Builder.hosts >= 100)

let test_bcube_counts () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:4 ~k:1 () in
  (* BCube(4,1): 16 hosts, 2 levels of 4 switches. *)
  Alcotest.(check int) "16 hosts" 16 (Array.length built.Builder.hosts);
  Alcotest.(check int) "24 nodes" 24 (Topology.node_count built.Builder.topo);
  (* Every host has k+1 = 2 ports. *)
  Array.iter
    (fun h ->
      Alcotest.(check int) "dual-port host" 2
        (List.length (Topology.links_from built.Builder.topo h)))
    built.Builder.hosts

let test_bcube_connectivity () =
  let sim = Sim.create () in
  let built = Builder.bcube ~sim ~n:2 ~k:3 () in
  Alcotest.(check int) "BCube(2,3): 16 hosts" 16 (Array.length built.Builder.hosts);
  let router = Router.create built.Builder.topo in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a <> b then ignore (Router.distance router ~src:a ~dst:b))
        built.Builder.hosts)
    built.Builder.hosts

let test_jellyfish () =
  let sim = Sim.create () in
  let rng = Rng.create 9 in
  let built = Builder.jellyfish ~sim ~rng ~switches:20 ~ports:24 ~net_ports:16 () in
  Alcotest.(check int) "8 hosts per switch" 160 (Array.length built.Builder.hosts);
  let router = Router.create built.Builder.topo in
  (* Connected: every pair of hosts is reachable. *)
  let h = built.Builder.hosts in
  ignore (Router.distance router ~src:h.(0) ~dst:h.(Array.length h - 1))

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_route_shortest () =
  let sim = Sim.create () in
  let built = Builder.single_rooted_tree ~sim () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  (* Same rack: host -> ToR -> host = 2 hops. *)
  Alcotest.(check int) "intra-rack distance" 2
    (Router.distance router ~src:h.(0) ~dst:h.(1));
  (* Cross rack: host -> ToR -> root -> ToR -> host = 4 hops. *)
  Alcotest.(check int) "cross-rack distance" 4
    (Router.distance router ~src:h.(0) ~dst:h.(11));
  let path = Router.path router ~src:h.(0) ~dst:h.(11) ~choice:7 in
  Alcotest.(check int) "path nodes" 5 (Array.length path);
  Alcotest.(check int) "starts at src" h.(0) path.(0);
  Alcotest.(check int) "ends at dst" h.(11) path.(4)

let test_route_deterministic () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let p1 = Router.path router ~src:h.(0) ~dst:h.(15) ~choice:3 in
  let p2 = Router.path router ~src:h.(0) ~dst:h.(15) ~choice:3 in
  Alcotest.(check bool) "same choice, same path" true (p1 = p2)

let test_route_ecmp_diversity () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let paths =
    List.init 64 (fun c ->
        Array.to_list (Router.path router ~src:h.(0) ~dst:h.(15) ~choice:c))
  in
  let distinct = List.length (List.sort_uniq compare paths) in
  Alcotest.(check bool)
    (Printf.sprintf "multiple ECMP paths (%d)" distinct)
    true (distinct > 1)

let test_path_links_consistent () =
  let sim = Sim.create () in
  let built = Builder.fat_tree ~sim ~k:4 () in
  let router = Router.create built.Builder.topo in
  let h = built.Builder.hosts in
  let nodes = Router.path router ~src:h.(0) ~dst:h.(12) ~choice:0 in
  let links = Router.path_links router ~src:h.(0) ~dst:h.(12) ~choice:0 in
  Alcotest.(check int) "one link per hop" (Array.length nodes - 1)
    (Array.length links);
  Array.iteri
    (fun i l ->
      let link = Topology.link built.Builder.topo l in
      Alcotest.(check int) "link src" nodes.(i) (Link.src link);
      Alcotest.(check int) "link dst" nodes.(i + 1) (Link.dst link))
    links

let prop_routes_are_shortest =
  QCheck.Test.make ~name:"ECMP path length equals BFS distance" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let sim = Sim.create () in
      let built = Builder.fat_tree ~sim ~k:4 () in
      let router = Router.create built.Builder.topo in
      let h = built.Builder.hosts in
      let src = h.(a mod 16) and dst = h.(b mod 16) in
      QCheck.assume (src <> dst);
      let d = Router.distance router ~src ~dst in
      let p = Router.path router ~src ~dst ~choice:(a + b) in
      Array.length p = d + 1)

(* Reference model for the router: the list-based walk it replaced.
   At every node the next hops are the usable links to a neighbour one
   hop closer to [dst], sorted by (peer, link id); the walk takes the
   [hash3 choice node dst mod width]-th of them, and a path's links are
   looked up by endpoints. *)
let ref_hash3 a b c =
  let h = ref 0x9E3779B9 in
  let mix x =
    h := (!h lxor (x + 0x7F4A7C15 + (!h lsl 6) + (!h lsr 2))) land max_int
  in
  mix a;
  mix b;
  mix c;
  !h

let ref_next_hops topo router ~node ~dst =
  let dist v = try Router.distance router ~src:v ~dst with Not_found -> max_int in
  let d = dist node in
  List.filter_map
    (fun (v, link) ->
      if dist v = d - 1 && Link.is_up (Topology.link topo link) then Some (v, link)
      else None)
    (Topology.links_from topo node)
  |> List.sort compare

let ref_path topo router ~src ~dst ~choice =
  ignore (Router.distance router ~src ~dst);
  let rec walk node acc =
    if node = dst then List.rev (node :: acc)
    else
      match ref_next_hops topo router ~node ~dst with
      | [] -> raise Not_found
      | hops ->
          let next, _ = List.nth hops (ref_hash3 choice node dst mod List.length hops) in
          walk next (node :: acc)
  in
  Array.of_list (walk src [])

let ref_path_links topo router ~src ~dst ~choice =
  let nodes = ref_path topo router ~src ~dst ~choice in
  Array.init (Array.length nodes - 1) (fun i ->
      Link.id (Topology.link_to topo ~src:nodes.(i) ~dst:nodes.(i + 1)))

let ref_ecmp_width topo router ~src ~dst =
  if src = dst then 0 else List.length (ref_next_hops topo router ~node:src ~dst)

(* [Router] agrees with the reference on random (src, dst, choice)
   triples over all nodes, switches included. *)
let check_router_matches_reference ~what topo router rng =
  let n = Topology.node_count topo in
  let attempt f = try Some (f ()) with Not_found -> None in
  for _ = 1 to 300 do
    let src = Rng.int rng n and dst = Rng.int rng n and choice = Rng.int rng 10_000 in
    let ctx = Printf.sprintf "%s: %d -> %d choice %d" what src dst choice in
    Alcotest.(check (option (array int))) (ctx ^ " path")
      (attempt (fun () -> ref_path topo router ~src ~dst ~choice))
      (attempt (fun () -> Router.path router ~src ~dst ~choice));
    Alcotest.(check (option (array int))) (ctx ^ " path_links")
      (attempt (fun () -> ref_path_links topo router ~src ~dst ~choice))
      (attempt (fun () -> Router.path_links router ~src ~dst ~choice));
    Alcotest.(check int) (ctx ^ " ecmp_width")
      (ref_ecmp_width topo router ~src ~dst)
      (Router.ecmp_width router ~src ~dst)
  done

(* Also after a duplex switch-to-switch failure on a used path plus
   [invalidate], and after the cable is restored. *)
let test_router_matches_reference (name, build) () =
  let built = build (Sim.create ()) in
  let topo = built.Builder.topo in
  let router = Router.create topo in
  let rng = Rng.create 11 in
  check_router_matches_reference ~what:name topo router rng;
  let h = built.Builder.hosts in
  let nodes = Router.path router ~src:h.(0) ~dst:h.(Array.length h - 1) ~choice:5 in
  let a = nodes.(1) and b = nodes.(2) in
  Topology.set_link_up topo ~a ~b false;
  Router.invalidate router;
  Alcotest.(check bool) "failed cable avoided" true
    (not (Array.mem (Link.id (Topology.link_to topo ~src:a ~dst:b))
            (Router.path_links router ~src:h.(0) ~dst:h.(Array.length h - 1) ~choice:5)));
  check_router_matches_reference ~what:(name ^ " with a failed cable") topo router rng;
  Topology.set_link_up topo ~a ~b true;
  Router.invalidate router;
  check_router_matches_reference ~what:(name ^ " restored") topo router rng

let reference_topologies =
  [
    ("fat-tree", fun sim -> Builder.fat_tree ~sim ~k:4 ());
    ("BCube", fun sim -> Builder.bcube ~sim ~n:2 ~k:3 ());
    ( "Jellyfish",
      fun sim -> Builder.jellyfish ~sim ~rng:(Rng.create 9) ~switches:20 ~ports:8 ~net_ports:5 () );
  ]

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "net.link",
      [
        Alcotest.test_case "delivery latency" `Quick test_link_delivery_time;
        Alcotest.test_case "FIFO serialization" `Quick test_link_serialization_fifo;
        Alcotest.test_case "tail drop" `Quick test_link_tail_drop;
        Alcotest.test_case "ring FIFO across wrap and growth" `Quick test_link_ring_fifo;
        Alcotest.test_case "queue accounting" `Quick test_link_queue_accounting;
        Alcotest.test_case "bernoulli loss" `Quick test_link_loss;
        Alcotest.test_case "down/up semantics" `Quick test_link_down_up;
        Alcotest.test_case "gilbert-elliott loss" `Quick test_link_gilbert_loss;
        Alcotest.test_case "transmit tap" `Quick test_link_tap;
      ] );
    ( "net.topologies",
      [
        Alcotest.test_case "missing handler names node" `Quick
          test_no_handler_carries_node_id;
        Alcotest.test_case "single bottleneck" `Quick test_single_bottleneck;
        Alcotest.test_case "single-rooted tree (Fig 2a)" `Quick
          test_single_rooted_tree;
        Alcotest.test_case "fat-tree counts" `Quick test_fat_tree_counts;
        Alcotest.test_case "fat-tree sizing" `Quick test_fat_tree_for_servers;
        Alcotest.test_case "bcube counts" `Quick test_bcube_counts;
        Alcotest.test_case "bcube(2,3) connectivity" `Quick test_bcube_connectivity;
        Alcotest.test_case "jellyfish" `Quick test_jellyfish;
      ] );
    ( "net.routing",
      [
        Alcotest.test_case "shortest paths" `Quick test_route_shortest;
        Alcotest.test_case "deterministic choice" `Quick test_route_deterministic;
        Alcotest.test_case "ecmp diversity" `Quick test_route_ecmp_diversity;
        Alcotest.test_case "path/link consistency" `Quick test_path_links_consistent;
      ]
      @ List.map
          (fun ((name, _) as topo) ->
            Alcotest.test_case ("matches list walk: " ^ name) `Quick
              (test_router_matches_reference topo))
          reference_topologies
      @ qsuite [ prop_routes_are_shortest ] );
  ]
