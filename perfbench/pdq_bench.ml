(* The repository benchmark: three closed-loop workloads, each printing
   its end-to-end metrics (untraced) or its per-layer metrics (traced)
   as one JSON line, with outputs checked against committed digests.
   See README.md in this directory. *)

module Sim = Pdq_engine.Sim
module Profiler = Pdq_engine.Profiler
module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Sweep = Pdq_exec.Sweep
module Exec_opts = Pdq_exec.Exec_opts
module Task = Pdq_exec.Task
module Oracle = Pdq_check.Oracle
module Flowsim = Pdq_flowsim.Flowsim
module Builder = Pdq_topo.Builder
module Router = Pdq_net.Router
module Size_dist = Pdq_workload.Size_dist
module M = Measure

let now = Unix.gettimeofday

(* {1 Sizes} *)

type config = {
  pkt_traces : int;  (** Traces in the pkt_trace pool (x4 protocols). *)
  pkt_flows : int;  (** Flows per trace. *)
  agg_slots : int;  (** Scenarios per agg_checked_sweep sweep. *)
  fat_lists : int;  (** Flow lists in the flow_fattree pool (x3 protocols). *)
  fat_flows : int;  (** Flows per list. *)
  setups : int;  (** Set-ups per untraced run; setup_s is their median. *)
}

let full = { pkt_traces = 100; pkt_flows = 5; agg_slots = 312; fat_lists = 40; fat_flows = 4096; setups = 3 }

(* Tiny pools for the smoke test; the digest sets do not depend on
   these sizes. *)
let smoke = { pkt_traces = 2; pkt_flows = 5; agg_slots = 8; fat_lists = 1; fat_flows = 256; setups = 1 }

let pkt_rate = 2000. (* flows/s *)
let agg_jobs = 2
let fat_servers = 1024
let fat_rate = 500_000. (* flows/s over the whole fat-tree *)

(* The digest sets use this seed whatever [--seed] is, so their digests
   can be committed. *)
let check_seed = 2012

(* {1 Helpers} *)

let timed rc ~parent name f =
  match rc with
  | None -> f ()
  | Some r -> Span.record r ~parent ~run:0 name (fun _ -> f ())

let safe f = try f () with e -> M.failed_obs (Printexc.to_string e)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array, with the number of
   samples above it. *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)) in
  (sorted.(k), n - 1 - k)

(* The highest percentile of the ladder with at least ten samples
   beyond it. *)
let tail sorted =
  let rec go = function
    | [] -> (50., fst (percentile sorted 50.), snd (percentile sorted 50.))
    | p :: rest ->
        let v, beyond = percentile sorted p in
        if beyond >= 10 then (p, v, beyond) else go rest
  in
  go [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75. ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed pure-OCaml loop; its time lets records from different hosts
   be compared. Median of three. *)
let calibration_s () =
  let once () =
    let t0 = now () in
    let x = ref 88172645 and acc = ref 0 in
    for _ = 1 to 20_000_000 do
      x := !x lxor ((!x lsl 13) land 0xFFFFFFFF);
      x := !x lxor (!x lsr 17);
      x := !x lxor ((!x lsl 5) land 0xFFFFFFFF);
      acc := !acc + (!x land 1023)
    done;
    let a = Array.init 200_000 (fun i -> float_of_int (i * 7919 mod 200_003)) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (!acc, a));
    now () -. t0
  in
  median [ once (); once (); once () ]

(* The engine microloop: 64 self-rescheduling timers, each also
   cancelling and re-arming an auxiliary one-shot (the watchdog
   pattern). Untraced; median events/s of three, with that run's minor
   words per event. *)
let k_tick = Sim.Kind.register "perfbench.tick"
let k_aux = Sim.Kind.register "perfbench.aux"

let engine_micro ~target_events =
  let once () =
    let sim = Sim.create () in
    let n = 64 in
    let sentinel = Sim.schedule sim ~delay:1e9 ignore in
    Sim.cancel sim sentinel;
    let aux = Array.make n sentinel in
    let ticks = Array.make n (fun () -> ()) in
    for i = 0 to n - 1 do
      let delay = 1e-5 +. (1e-7 *. float_of_int i) in
      ticks.(i) <-
        (fun () ->
          Sim.cancel sim aux.(i);
          aux.(i) <- Sim.schedule_k sim k_aux ~delay:1e-4 ignore;
          if Sim.events_executed sim < target_events then ignore (Sim.schedule_k sim k_tick ~delay ticks.(i)))
    done;
    for i = 0 to n - 1 do
      ignore (Sim.schedule_k sim k_tick ~delay:(1e-5 +. (1e-7 *. float_of_int i)) ticks.(i))
    done;
    let m0 = Gc.minor_words () in
    let t0 = now () in
    Sim.run sim;
    let wall = now () -. t0 in
    let events = float_of_int (Sim.events_executed sim) in
    (events /. wall, (Gc.minor_words () -. m0) /. events)
  in
  let runs = List.sort compare [ once (); once (); once () ] in
  List.nth runs 1

(* {1 Committed digests} *)

let workload_names = [ "pkt_trace"; "agg_checked_sweep"; "flow_fattree" ]

let read_digests path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | s ->
      List.filter_map
        (fun name ->
          let key = Printf.sprintf "\"%s\": \"" name in
          let kl = String.length key in
          let rec find i =
            if i + kl > String.length s then None
            else if String.sub s i kl = key then
              match String.index_from_opt s (i + kl) '"' with
              | Some j -> Some (name, String.sub s (i + kl) (j - i - kl))
              | None -> None
            else find (i + 1)
          in
          find 0)
        workload_names

let write_digests path entries =
  let entries = List.sort compare entries in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "  \"%s\": \"%s\"%s\n" k v (if i = List.length entries - 1 then "" else ","))
        entries;
      output_string oc "}\n")

(* {1 Workloads} *)

(* The digest set's outcome: each label's combined digest (agg runs its
   set at two job counts, both must match the committed digest), and
   its runs. *)
type check = { digests : (string * string) list; check_runs : M.obs list }

type pass = {
  obs : M.obs array;  (** One per pool entry, in pool order. *)
  times : float array;  (** CPU seconds of each run. *)
  wall : float;
  cpu : float;  (** Process CPU seconds, all domains. *)
  sweep : (float * float) option;  (** (sum of slot seconds, sweep wall). *)
}

type 'pool workload = {
  name : string;
  jobs : int;
  setup : Span.recorder option -> int -> 'pool * check;
  pass : M.traced option -> 'pool -> pass;
  extras : 'pool -> Span.recorder -> int -> (string * float) list;
      (** Traced-only measurements beyond the traced passes. *)
}

let digests_of runs = M.combine (List.map (fun (o : M.obs) -> o.M.digest) runs)

(* A pass of runs on the calling domain. *)
let timed_pass f =
  let t0 = now () and c0 = M.process_cpu () in
  let obs = f () in
  {
    obs;
    times = Array.map (fun (o : M.obs) -> o.M.run_s) obs;
    wall = now () -. t0;
    cpu = M.process_cpu () -. c0;
    sweep = None;
  }

let packet_once ?traced ~checked sc =
  safe (fun () ->
      let o, _, _ = M.packet_run ?traced ~checked sc in
      o)

(* pkt_trace *)

let pkt_check_scenarios hosts =
  Inputs.pkt_scenarios (Inputs.pkt_traces ~seed:check_seed ~traces:1 ~flows:20 ~rate:pkt_rate ~hosts)

let pkt_workload cfg ~seed =
  let setup rc parent =
    let hosts = timed rc ~parent "Builder.single_rooted_tree" Inputs.tree_hosts in
    let traces, check_scs =
      timed rc ~parent "workload.gen" (fun () ->
          ( Inputs.pkt_traces ~seed ~traces:cfg.pkt_traces ~flows:cfg.pkt_flows ~rate:pkt_rate ~hosts,
            pkt_check_scenarios hosts ))
    in
    let pool = Array.of_list (Inputs.pkt_scenarios traces) in
    let runs = timed rc ~parent "check_set" (fun () -> List.map (packet_once ~checked:false) check_scs) in
    (pool, { digests = [ ("pkt_trace", digests_of runs) ]; check_runs = runs })
  in
  let pass traced pool = timed_pass (fun () -> Array.map (packet_once ?traced ~checked:false) pool) in
  { name = "pkt_trace"; jobs = 1; setup; pass; extras = (fun _ _ _ -> []) }

(* agg_checked_sweep *)

let agg_sweep ?traced ~jobs scenarios =
  let pool = Array.of_list scenarios in
  let n = Array.length pool in
  let elapsed = Array.make n 0. in
  let on_event = function Sweep.Slot_ok { index; elapsed = e; _ } -> elapsed.(index) <- e | _ -> () in
  let slot i =
    match traced with
    | None ->
        let o, _, _ = M.packet_run ~checked:true pool.(i) in
        (o, None, [])
    | Some (t : M.traced) ->
        let t = { t with M.recorder = Span.recorder (); probe = M.probe () } in
        let o, _, _ = M.packet_run ~traced:t ~checked:true pool.(i) in
        (o, Some t.M.probe, Span.spans t.M.recorder)
  in
  let t0 = now () and c0 = M.process_cpu () in
  let sup =
    Sweep.supervise ~opts:(Exec_opts.make ~jobs ~budget:M.budget ()) ~on_event ~key:string_of_int slot
      (List.init n Fun.id)
  in
  let wall = now () -. t0 in
  let obs =
    List.mapi
      (fun i task ->
        match task with
        | Task.Ok (o, p, spans) ->
            Option.iter
              (fun (t : M.traced) ->
                Option.iter (M.merge_probe t.M.probe) p;
                List.iter (Span.add t.M.recorder) spans)
              traced;
            { o with M.run_s = elapsed.(i) }
        | Task.Failed f -> M.failed_obs f.Task.exn
        | Task.Timed_out t -> M.failed_obs ("timed out: " ^ t.Task.budget)
        | Task.Skipped -> M.failed_obs "skipped")
      sup.Sweep.tasks
    |> Array.of_list
  in
  {
    obs;
    times = Array.map (fun (o : M.obs) -> o.M.run_s) obs;
    wall;
    cpu = M.process_cpu () -. c0;
    sweep = Some (Array.fold_left ( +. ) 0. elapsed, wall);
  }

let agg_workload cfg ~seed =
  let setup rc parent =
    let hosts = timed rc ~parent "Builder.single_rooted_tree" Inputs.tree_hosts in
    let pool, check_scs =
      timed rc ~parent "workload.gen" (fun () ->
          (Inputs.agg_pool ~seed ~slots:cfg.agg_slots ~hosts, Inputs.agg_check_set ~seed:check_seed ~hosts))
    in
    let by_jobs jobs =
      let p = agg_sweep ~jobs check_scs in
      Array.to_list p.obs
    in
    let runs2, runs1 =
      timed rc ~parent "check_set" (fun () ->
          let r2 = by_jobs agg_jobs in
          (r2, by_jobs 1))
    in
    ( pool,
      {
        digests = [ ("agg_checked_sweep", digests_of runs2); ("agg_checked_sweep@jobs1", digests_of runs1) ];
        check_runs = runs2 @ runs1;
      } )
  in
  let pass traced pool = agg_sweep ?traced ~jobs:agg_jobs pool in
  (* Sum of run_checked minus sum of run over the same scenarios, and
     the oracle on its own, all untraced on one domain. *)
  let extras pool rc parent =
    let checked = ref 0. and plain = ref 0. and oracle = ref 0. in
    Span.record rc ~parent ~run:0 "check_overhead" (fun id ->
        List.iter
          (fun sc ->
            let run = Span.fresh () in
            let span name f acc =
              let t0 = now () in
              let v = f () in
              let t1 = now () in
              acc := !acc +. (t1 -. t0);
              Span.add rc { Span.id = Span.fresh (); parent = id; run; name; detail = ""; start = t0; stop = t1 };
              v
            in
            ignore (span "Scenario.run_checked" (fun () -> M.packet_run ~checked:true sc) checked);
            let _, result, topo = span "Scenario.run" (fun () -> M.packet_run ~checked:false sc) plain in
            ignore (span "Oracle.check" (fun () -> Oracle.check ~result ~topo ()) oracle))
          pool);
    [ ("check.overhead_s", !checked -. !plain); ("check.oracle_s", !oracle) ]
  in
  { name = "agg_checked_sweep"; jobs = agg_jobs; setup; pass; extras }

(* flow_fattree *)

type fat_pool = { net : Flowsim.net; runs : (Flowsim.proto * Flowsim.flow_spec list) array }

let fat_workload cfg ~seed =
  let setup rc parent =
    let built =
      timed rc ~parent "Builder.fat_tree_for_servers" (fun () ->
          Builder.fat_tree_for_servers ~sim:(Sim.create ()) ~servers:fat_servers ())
    in
    let hosts = built.Builder.hosts in
    let lists, check_list =
      timed rc ~parent "workload.gen" (fun () ->
          ( Inputs.fat_flows ~seed ~salt:4 ~lists:cfg.fat_lists ~flows:cfg.fat_flows ~rate:fat_rate ~hosts,
            List.hd (Inputs.fat_flows ~seed:check_seed ~salt:5 ~lists:1 ~flows:1024 ~rate:fat_rate ~hosts) ))
    in
    let specs, check_specs =
      timed rc ~parent "Router.path_links" (fun () ->
          let router = Router.create built.Builder.topo in
          (List.map (Inputs.fat_specs router) lists, Inputs.fat_specs router check_list))
    in
    let net = timed rc ~parent "Flowsim.net_of_topology" (fun () -> Flowsim.net_of_topology built.Builder.topo) in
    let runs =
      List.concat_map (fun s -> Array.to_list (Array.map (fun p -> (p, s)) Inputs.flowsim_protocols)) specs
      |> Array.of_list
    in
    let check_runs =
      timed rc ~parent "check_set" (fun () ->
          Array.to_list Inputs.flowsim_protocols
          |> List.map (fun p -> safe (fun () -> M.flowsim_run net p check_specs)))
    in
    ({ net; runs }, { digests = [ ("flow_fattree", digests_of check_runs) ]; check_runs })
  in
  let pass traced pool =
    timed_pass (fun () ->
        Array.map (fun (p, specs) -> safe (fun () -> M.flowsim_run ?traced pool.net p specs)) pool.runs)
  in
  { name = "flow_fattree"; jobs = 1; setup; pass; extras = (fun _ _ _ -> []) }

(* {1 Closed loop} *)

(* Whole passes over the pool until [seconds] are (about) used: the
   loop stops at the pass boundary nearest to the deadline, so every
   input of the pool weighs the same. *)
let closed_loop ~seconds run_pass =
  let t0 = now () in
  let rec go acc =
    let p = run_pass () in
    let elapsed = now () -. t0 in
    if elapsed +. (0.5 *. p.wall) >= seconds then (List.rev (p :: acc), elapsed) else go (p :: acc)
  in
  go []

type failures = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let fail fs note =
  fs.failed <- fs.failed + 1;
  if List.length fs.notes < 8 then fs.notes <- note :: fs.notes

(* Every run of every pass must succeed and reproduce the first pass's
   digest for the same input. *)
let check_passes fs passes =
  match passes with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun k p ->
          Array.iteri
            (fun i (o : M.obs) ->
              fs.attempted <- fs.attempted + 1;
              match o.M.error with
              | Some e -> fail fs (Printf.sprintf "pass %d input %d: %s" k i e)
              | None ->
                  if o.M.digest <> first.obs.(i).M.digest then
                    fail fs (Printf.sprintf "pass %d input %d: output differs from pass 0" k i))
            p.obs)
        passes

(* The digest set must run cleanly and match the committed digest
   ([committed] lists (workload, digest) pairs). *)
let check_digests fs ~committed ~name (c : check) =
  let clean = List.for_all (fun (o : M.obs) -> o.M.error = None) c.check_runs in
  List.iter
    (fun (o : M.obs) ->
      fs.attempted <- fs.attempted + 1;
      match o.M.error with Some e -> fail fs ("digest set: " ^ e) | None -> ())
    c.check_runs;
  if clean then
    match List.assoc_opt name committed with
    | None ->
        fs.failed <- fs.failed + List.length c.check_runs;
        fs.notes <- ("no committed digest for " ^ name) :: fs.notes
    | Some want ->
        List.iter
          (fun (label, got) ->
            if got <> want then begin
              fs.failed <- fs.failed + (List.length c.check_runs / List.length c.digests);
              fs.notes <- Printf.sprintf "%s digest %s, committed %s" label got want :: fs.notes
            end)
          c.digests

(* {1 Output} *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u) ms)
  ^ "}"

let finish ~out ~wl_name ~mode ~fs ~metrics ~extra =
  let all_finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not all_finite then fs.notes <- "a metric is not a finite number" :: fs.notes;
  let correct = fs.failed = 0 && all_finite in
  let esc = Pdq_telemetry.Trace.json_escape in
  let record =
    Printf.sprintf
      "{\"workload\": \"%s\", \"mode\": \"%s\", \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
       \"fail_frac\": %s, \"notes\": [%s], %s, \"metrics\": %s}"
      wl_name mode correct fs.attempted fs.failed
      (num (float_of_int fs.failed /. float_of_int (max 1 fs.attempted)))
      (String.concat ", " (List.map (fun n -> "\"" ^ esc n ^ "\"") (List.rev fs.notes)))
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) extra))
      (metrics_json metrics)
  in
  (try Out_channel.with_open_bin (Filename.concat out (wl_name ^ "." ^ mode ^ ".json")) (fun oc ->
           output_string oc record;
           output_char oc '\n')
   with Sys_error e -> prerr_endline ("cannot write record: " ^ e));
  print_endline record;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    (max 1 fs.attempted) fs.failed (metrics_json metrics);
  exit (if correct then 0 else 1)

(* {1 Untraced run: end-to-end metrics} *)

let untraced (wl : _ workload) cfg ~seconds ~committed ~out =
  let fs = { attempted = 0; failed = 0; notes = [] } in
  (* Set up [cfg.setups] times, keeping only the last pool alive. *)
  let setup_times = ref [] and pool = ref None in
  for _ = 1 to cfg.setups do
    pool := None;
    let c0 = M.process_cpu () in
    let p, check = wl.setup None 0 in
    setup_times := (M.process_cpu () -. c0) :: !setup_times;
    check_digests fs ~committed ~name:wl.name check;
    pool := Some p
  done;
  let setup_times = List.rev !setup_times and pool = Option.get !pool in
  let passes, wall = closed_loop ~seconds (fun () -> wl.pass None pool) in
  let cpu = sum (fun p -> p.cpu) passes in
  check_passes fs passes;
  let first = (List.hd passes).obs in
  (* Each input runs once per pass; its time is its median over the
     passes. A median (unlike a minimum) does not drift with the number of
     passes, which depends on the host's speed. *)
  let times =
    Array.init (Array.length (List.hd passes).times) (fun i -> median (List.map (fun p -> p.times.(i)) passes))
  in
  (* CPU seconds one pass costs: the sum of the run times on one domain;
     for a sweep, its median pass in process CPU seconds (the worker
     pool's own cost included). *)
  let pass_cpu =
    if wl.jobs > 1 then median (List.map (fun p -> p.cpu) passes) else Array.fold_left ( +. ) 0. times
  in
  Array.sort compare times;
  let tail_pct, tail_v, beyond = tail times in
  let flows = sumi (fun (o : M.obs) -> o.M.flows) (Array.to_list first) in
  let events = sumi (fun (o : M.obs) -> o.M.events) (Array.to_list first) in
  let minor = sum (fun (o : M.obs) -> o.M.minor) (Array.to_list first) in
  let setup_s = median setup_times in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("flows_per_s", float_of_int flows /. pass_cpu, "1/s");
      ("run_ms_p50", 1000. *. fst (percentile times 50.), "ms");
      ("run_ms_tail", 1000. *. tail_v, "ms");
      ("events_per_s", float_of_int events /. pass_cpu, "1/s");
      ("minor_words_per_event", minor /. float_of_int (max 1 events), "words");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let extra =
    [
      ("runs", string_of_int (Array.length times));
      ("passes", string_of_int (List.length passes));
      ("results_per_pass", string_of_int (Array.length first));
      ("tail_pct", num tail_pct);
      ("tail_runs_beyond", string_of_int beyond);
      ("wall_s", num wall);
      ("cpu_s", num cpu);
      ("pass_cpu_s", num pass_cpu);
      ("jobs", string_of_int wl.jobs);
      ("flows_per_pass", string_of_int flows);
      ("events_per_pass", string_of_int events);
      ("sim_s_per_pass", num (sum (fun (o : M.obs) -> o.M.sim_s) (Array.to_list first)));
      ("setup_times_s", "[" ^ String.concat ", " (List.map num setup_times) ^ "]");
      ("calibration_s", num (calibration_s ()));
    ]
  in
  finish ~out ~wl_name:wl.name ~mode:"untraced" ~fs ~metrics ~extra

(* {1 Traced run: per-layer metrics} *)

let kinds =
  [
    "link.deliver"; "link.tx"; "pdq.send"; "pdq.probe"; "pdq.rate_ctl"; "pdq.watchdog"; "rate.send";
    "rcp.tick"; "d3.tick"; "tcp.timer"; "check.probe";
  ]

let traced (wl : _ workload) ~seed ~seconds ~committed ~out =
  let fs = { attempted = 0; failed = 0; notes = [] } in
  let rc = Span.recorder () in
  let root = Span.fresh () in
  let t_root = now () in
  let pool, check = Span.record rc ~parent:root ~run:0 "setup" (fun id -> wl.setup (Some rc) id) in
  check_digests fs ~committed ~name:wl.name check;
  (* Untraced reference passes, then as many traced passes over the same
     inputs: their CPU-time ratio is the tracing overhead. *)
  let ref_passes, _ =
    Span.record rc ~parent:root ~run:0 "untraced_passes" (fun _ ->
        closed_loop ~seconds:(0.35 *. seconds) (fun () -> wl.pass None pool))
  in
  let ref_cpu = sum (fun p -> p.cpu) ref_passes in
  let probe = M.probe () in
  let prof = Profiler.enable_global () in
  Profiler.reset prof;
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let passes =
    List.map
      (fun _ ->
        Span.record rc ~parent:root ~run:0 "pass" (fun id ->
            wl.pass (Some { M.recorder = rc; parent = id; probe }) pool))
      ref_passes
  in
  let tr_wall = now () -. t0 in
  let tr_cpu = sum (fun p -> p.cpu) passes in
  let gc1 = Gc.quick_stat () in
  Profiler.disable_global ();
  check_passes fs (ref_passes @ passes);
  let extras = wl.extras pool rc root in
  let micro_eps, micro_wpe =
    Span.record rc ~parent:root ~run:0 "engine_micro" (fun _ -> engine_micro ~target_events:1_000_000)
  in
  Span.add rc { Span.id = root; parent = 0; run = 0; name = "workload"; detail = wl.name; start = t_root; stop = now () };
  (* Only the traced passes record [Scenario.build], [Runner.execute] and
     [Flowsim.run] spans; set-up records the [Builder.*],
     [workload.gen] and [Router.path_links] ones. *)
  let spans = Span.spans rc in
  let span_total ?detail name = Span.total ?detail spans name in
  let obs = List.concat_map (fun p -> Array.to_list p.obs) passes in
  let kind_stats = Profiler.kinds prof in
  let kind name = Option.value ~default:(0, 0.) (List.assoc_opt name kind_stats) in
  let cpu = Profiler.cpu_seconds prof in
  let per_count n d = if n = 0 then 0. else d /. float_of_int n in
  let slot_s = sum (fun p -> match p.sweep with Some (s, _) -> s | None -> 0.) passes in
  let sweep_wall = sum (fun p -> match p.sweep with Some (_, w) -> w | None -> 0.) passes in
  let jobs = float_of_int wl.jobs in
  let is_sweep = List.exists (fun p -> p.sweep <> None) passes in
  let flowsim_s = span_total "Flowsim.run" in
  let packet_obs, flowsim_obs = if flowsim_s > 0. then ([], obs) else (obs, []) in
  let sim_s = sum (fun (o : M.obs) -> o.M.sim_s) flowsim_obs in
  let metrics =
    [
      ("engine.events", float_of_int (Profiler.events_executed prof), "count");
      ("engine.cancelled_pops", float_of_int (Profiler.events_cancelled prof), "count");
      ("engine.queue_hwm", float_of_int (Profiler.queue_high_water prof), "count");
      ("engine.action_cpu_s", cpu, "s");
      ("engine.loop_s", (if cpu > 0. then span_total "Runner.execute" -. cpu else 0.), "s");
    ]
    @ List.concat_map
        (fun k ->
          let n, c = kind k in
          [ ("engine.kind." ^ k ^ ".count", float_of_int n, "count"); ("engine.kind." ^ k ^ ".cpu_s", c, "s") ])
        kinds
    @ [
        ("engine.micro_events_per_s", micro_eps, "1/s");
        ("engine.micro_words_per_event", micro_wpe, "words");
        ("net.deliver_to_switch.count", float_of_int probe.M.counts.(0), "count");
        ("net.deliver_to_switch.ns", 1e9 *. per_count probe.M.counts.(0) probe.M.times.(0), "ns");
        ("net.deliver_to_host.count", float_of_int probe.M.counts.(1), "count");
        ("net.deliver_to_host.ns", 1e9 *. per_count probe.M.counts.(1) probe.M.times.(1), "ns");
        ("net.packets_delivered", float_of_int probe.M.delivered, "count");
        ("net.bytes_sent", float_of_int probe.M.bytes_sent, "bytes");
        ("net.drops.overflow", float_of_int probe.M.overflow, "count");
        ("net.router.paths_s", span_total "Router.path_links", "s");
        ("switch_port.flows_stored.mean", per_count probe.M.port_views (float_of_int probe.M.stored_sum), "count");
        ("switch_port.flows_stored.max", float_of_int probe.M.stored_max, "count");
        ("switch_port.flows_paused.mean", per_count probe.M.port_views (float_of_int probe.M.paused_sum), "count");
      ]
    @ List.map
        (fun p -> ("transport." ^ p ^ ".execute_s", span_total ~detail:p "Runner.execute", "s"))
        [ "pdq"; "rcp"; "d3"; "tcp" ]
    @ [
        ("transport.completed", float_of_int (sumi (fun (o : M.obs) -> o.M.completed) packet_obs), "count");
        ("transport.terminated", float_of_int (sumi (fun (o : M.obs) -> o.M.terminated) packet_obs), "count");
        ("transport.aborted", float_of_int (sumi (fun (o : M.obs) -> o.M.aborted) packet_obs), "count");
        ("exec.build_s", span_total "Scenario.build", "s");
        ("exec.sweep.slot_s", slot_s, "s");
        ("exec.sweep.wall_s", sweep_wall, "s");
        ("exec.sweep.idle_s", (if is_sweep then (jobs *. sweep_wall) -. slot_s else 0.), "s");
        ("exec.sweep.parallel_eff", (if is_sweep then slot_s /. (jobs *. sweep_wall) else 0.), "ratio");
        ("telemetry.trace_events", float_of_int probe.M.trace_events, "count");
        ("check.overhead_s", Option.value ~default:0. (List.assoc_opt "check.overhead_s" extras), "s");
        ("check.oracle_s", Option.value ~default:0. (List.assoc_opt "check.oracle_s" extras), "s");
        ("flowsim.run_s", flowsim_s, "s");
        ("flowsim.sim_s", sim_s, "s");
        ("flowsim.host_s_per_sim_s", (if sim_s > 0. then flowsim_s /. sim_s else 0.), "ratio");
        ("flowsim.minor_words", sum (fun (o : M.obs) -> o.M.minor) flowsim_obs, "words");
        ("topo.build_s", span_total "Builder.single_rooted_tree" +. span_total "Builder.fat_tree_for_servers", "s");
        ("workload.gen_s", span_total "workload.gen", "s");
        ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections), "count");
        ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections), "count");
        ("trace.overhead", tr_cpu /. ref_cpu, "ratio");
      ]
  in
  let spans_path = Filename.concat out (Printf.sprintf "%s.seed%d.spans.jsonl" wl.name seed) in
  Span.write_jsonl spans_path spans;
  let self_times =
    Span.self_times spans
    |> List.map (fun (name, (n, total, self)) ->
           Printf.sprintf "{\"name\": \"%s\", \"count\": %d, \"total_s\": %s, \"self_s\": %s}" name n (num total)
             (num self))
  in
  let extra =
    [
      ("passes", string_of_int (List.length passes));
      ("untraced_cpu_s", num ref_cpu);
      ("traced_cpu_s", num tr_cpu);
      ("traced_wall_s", num tr_wall);
      ( "kinds",
        "{"
        ^ String.concat ", "
            (List.map (fun (k, (n, c)) -> Printf.sprintf "\"%s\": [%d, %s]" k n (num c)) kind_stats)
        ^ "}" );
      ("spans", "\"" ^ spans_path ^ "\"");
      ("self_times", "[" ^ String.concat ", " self_times ^ "]");
    ]
  in
  finish ~out ~wl_name:wl.name ~mode:"traced" ~fs ~metrics ~extra

(* {1 Digest refresh and self-test} *)

let refresh (wl : _ workload) ~path =
  let _, check = wl.setup None 0 in
  let errors = List.filter_map (fun (o : M.obs) -> o.M.error) check.check_runs in
  let distinct = List.sort_uniq compare (List.map snd check.digests) in
  match (errors, distinct) with
  | [], [ d ] ->
      let entries = (wl.name, d) :: List.remove_assoc wl.name (read_digests path) in
      write_digests path entries;
      Printf.printf "%s: digest %s written to %s\n" wl.name d path
  | [], _ ->
      Printf.printf "%s: digest set differs between its runs: %s\n" wl.name
        (String.concat ", " (List.map (fun (l, d) -> l ^ "=" ^ d) check.digests));
      exit 1
  | e :: _, _ ->
      Printf.printf "%s: digest set failed: %s\n" wl.name e;
      exit 1

let selftest () =
  let want = Size_dist.mean (Size_dist.vl2 ()) in
  if Float.abs (Inputs.vl2_mean -. want) > 1e-9 *. want then begin
    Printf.printf "selftest: VL2 quantile table mean %g differs from Size_dist.vl2 mean %g\n" Inputs.vl2_mean want;
    exit 1
  end;
  print_endline "selftest ok"

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let digests = ref "perfbench/digests.json" and out = ref "perfbench/out" in
  let tiny = ref false and do_refresh = ref false and do_selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pkt_trace | agg_checked_sweep | flow_fattree");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--digests", Arg.Set_string digests, "FILE committed digests (default perfbench/digests.json)");
      ("--out", Arg.Set_string out, "DIR records and spans (default perfbench/out)");
      ("--smoke", Arg.Set tiny, " tiny pools (smoke test)");
      ("--refresh-digests", Arg.Set do_refresh, " recompute the workload's digest and write it to --digests");
      ("--selftest", Arg.Set do_selftest, " check the benchmark's own tables against the library");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pdq_bench --workload NAME --seed N --seconds S --trace 0|1";
  if !do_selftest then selftest ()
  else begin
    let cfg = if !tiny then smoke else full in
    let seed = !seed and seconds = !seconds in
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    let committed = read_digests !digests in
    let go wl =
      if !do_refresh then refresh wl ~path:!digests
      else if !trace = 1 then traced wl ~seed ~seconds ~committed ~out:!out
      else untraced wl cfg ~seconds ~committed ~out:!out
    in
    match !workload with
    | "pkt_trace" -> go (pkt_workload cfg ~seed)
    | "agg_checked_sweep" -> go (agg_workload cfg ~seed)
    | "flow_fattree" -> go (fat_workload cfg ~seed)
    | w ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" w (String.concat ", " workload_names);
        exit 2
  end
