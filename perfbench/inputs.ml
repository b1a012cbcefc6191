(* Seeded inputs of the three workloads.

   Everything here is derived from the [seed] argument alone, and the
   program only ever receives plain data: [Scenario.Explicit] flow
   lists, [Flowsim.flow_spec] lists and built topologies. *)

module Rng = Pdq_engine.Rng
module Sim = Pdq_engine.Sim
module Context = Pdq_transport.Context
module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Builder = Pdq_topo.Builder
module Router = Pdq_net.Router
module Flowsim = Pdq_flowsim.Flowsim
module Pattern = Pdq_workload.Pattern
module Arrivals = Pdq_workload.Arrivals
module Size_dist = Pdq_workload.Size_dist
module Deadline_dist = Pdq_workload.Deadline_dist

(* An independent stream per (seed, salt, index). *)
let rng ~seed ~salt i = Rng.create ((seed * 1_000_003) + (salt * 65_537) + i)

let packet_protocols =
  [| Runner.Pdq Pdq_core.Config.full; Runner.Rcp; Runner.D3; Runner.Tcp |]

let protocol_tag = function
  | Runner.Pdq _ | Runner.Pdq_estimated _ | Runner.Mpdq _ -> "pdq"
  | Runner.Rcp -> "rcp"
  | Runner.D3 -> "d3"
  | Runner.Tcp -> "tcp"

(* The paper's deadline law: Exp(20 ms) with a 3 ms floor. *)
let deadlines = Deadline_dist.exponential ~floor:0.003 ~mean:0.02 ()

(* Hosts of the paper's 12-server tree, as [Scenario.default_tree]
   numbers them. *)
let tree_hosts () = (Builder.single_rooted_tree ~sim:(Sim.create ()) ()).Builder.hosts

(* {1 VL2 sizes by quantile}

   The bands of [Size_dist.vl2] (weight, lo, hi; log-uniform within a
   band). Drawing sizes at chosen quantiles instead of at random lets a
   pool of traces hold the same size mix under every seed; the smoke
   test checks that this table still has [Size_dist.vl2]'s mean. *)
let vl2_bands = [ (0.55, 1e3, 1e4); (0.30, 1e4, 1e5); (0.10, 1e5, 1e6); (0.05, 1e6, 1e8) ]

let vl2_mean =
  List.fold_left (fun acc (w, lo, hi) -> acc +. (w *. (hi -. lo) /. log (hi /. lo))) 0. vl2_bands

let vl2_quantile u =
  let rec band acc = function
    | [] -> invalid_arg "vl2_quantile"
    | [ (w, lo, hi) ] -> (lo, hi, (u -. acc) /. w)
    | (w, lo, hi) :: rest -> if u < acc +. w then (lo, hi, (u -. acc) /. w) else band (acc +. w) rest
  in
  let lo, hi, t = band 0. vl2_bands in
  let t = Float.min 1. (Float.max 0. t) in
  max 1 (int_of_float (lo *. exp (t *. log (hi /. lo))))

(* {1 pkt_trace}

   [traces] Poisson traces of [flows] VL2-sized flows between random
   host pairs; flows under 40 KB carry deadlines (the Fig. 5 recipe).
   Sizes form a Latin hypercube over the pool: flow slot [s] of trace
   [i] takes the VL2 quantile at [(s + (perm_s(i) + 1/2) / traces) /
   flows], so every trace holds one flow per size stratum and, across
   the pool, each stratum is split evenly. The seed decides which sizes
   meet in a trace, their order, the hosts, the arrival times and the
   deadlines. *)
let short_flow_bytes = 40_000

let pkt_traces ~seed ~traces ~flows ~rate ~hosts =
  let pool = rng ~seed ~salt:1 0 in
  let perms = Array.init flows (fun _ -> Rng.permutation pool traces) in
  List.init traces (fun i ->
      let r = rng ~seed ~salt:2 i in
      let sizes =
        Array.init flows (fun s ->
            let cell = (float_of_int perms.(s).(i) +. 0.5) /. float_of_int traces in
            vl2_quantile ((float_of_int s +. cell) /. float_of_int flows))
      in
      Rng.shuffle r sizes;
      let starts = Arrivals.poisson_n ~rng:r ~rate ~n:flows in
      let pairs = Pattern.random_pairs ~hosts ~flows ~rng:r in
      let specs =
        List.mapi
          (fun k (start, (p : Pattern.pair)) ->
            let size = sizes.(k) in
            let deadline =
              if size < short_flow_bytes then Some (Deadline_dist.sample deadlines r) else None
            in
            { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline; start })
          (List.combine starts pairs)
      in
      (1 + Rng.int r 1_000_000, specs))

(* One scenario per (trace, protocol), the four protocols back to
   back. *)
let pkt_scenarios traces =
  List.concat_map
    (fun (scenario_seed, specs) ->
      Array.to_list packet_protocols
      |> List.map (fun proto ->
             Scenario.make ~name:"pkt_trace" ~seed:scenario_seed ~horizon:10.
               ~workload:(Scenario.Explicit specs) proto))
    traces

(* {1 agg_checked_sweep}

   Query aggregation (Fig. 3): [n] flows of U[2 KB, 198 KB] towards the
   first host, all starting at 0, with Exp(20 ms, floor 3 ms)
   deadlines. Slot [j] of the timed pool runs [n = 2 + (j / 4) mod 39]
   flows under protocol [j mod 4], so 156 slots cover every
   (flow count, protocol) pair once. *)
let agg_sizes = Size_dist.uniform_paper ~mean_bytes:100_000

let agg_scenario ~seed ~hosts ~index ~flows ~proto =
  let r = rng ~seed ~salt:3 index in
  let pairs = Pattern.aggregation ~hosts ~receiver:hosts.(0) ~flows in
  let specs =
    List.map
      (fun (p : Pattern.pair) ->
        let size = Size_dist.sample agg_sizes r in
        let deadline = Some (Deadline_dist.sample deadlines r) in
        { Context.src = p.Pattern.src; dst = p.Pattern.dst; size; deadline; start = 0. })
      pairs
  in
  Scenario.make ~name:"agg_checked_sweep" ~seed:(1 + Rng.int r 1_000_000) ~horizon:5.
    ~workload:(Scenario.Explicit specs) packet_protocols.(proto)

let agg_pool ~seed ~slots ~hosts =
  List.init slots (fun j ->
      agg_scenario ~seed ~hosts ~index:j ~flows:(2 + (j / 4 mod 39)) ~proto:(j mod 4))

(* The digest set: 16 slots spread over flow counts and protocols. *)
let agg_check_set ~seed ~hosts =
  List.init 16 (fun j ->
      agg_scenario ~seed ~hosts ~index:j ~flows:(2 + (j * 17 mod 39)) ~proto:(j mod 4))

(* {1 flow_fattree}

   [lists] flow lists of [flows] Poisson arrivals at [rate] flows/s over
   random host pairs of the fat-tree, sizes U[2 KB, 198 KB] and
   Exp(20 ms, floor 3 ms) deadlines. Routing is a separate step
   ([fat_specs]) so set-up can time it on its own. *)
type flow = { src : int; dst : int; size : int; deadline : float; start : float }

let flowsim_protocols = [| Flowsim.Pdq Flowsim.pdq_defaults; Flowsim.Rcp; Flowsim.D3 |]

let flowsim_tag = function Flowsim.Pdq _ -> "pdq" | Flowsim.Rcp -> "rcp" | Flowsim.D3 -> "d3"

let fat_flows ~seed ~salt ~lists ~flows ~rate ~hosts =
  List.init lists (fun i ->
      let r = rng ~seed ~salt i in
      let starts = Arrivals.poisson_n ~rng:r ~rate ~n:flows in
      let pairs = Pattern.random_pairs ~hosts ~flows ~rng:r in
      List.map2
        (fun start (p : Pattern.pair) ->
          let size = Size_dist.sample agg_sizes r in
          let deadline = Deadline_dist.sample deadlines r in
          { src = p.Pattern.src; dst = p.Pattern.dst; size; deadline; start })
        starts pairs)

let fat_specs router flows =
  List.mapi
    (fun id f ->
      {
        Flowsim.fs_id = id;
        path = Router.path_links router ~src:f.src ~dst:f.dst ~choice:id;
        size = f.size;
        deadline = Some f.deadline;
        start = f.start;
      })
    flows
