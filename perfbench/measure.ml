(* One run of a layer, measured from the outside: host time, simulator
   events, minor words allocated on the running domain, flows brought
   to a final state, and a digest of everything the run outputs. The
   traced variant also wraps the link receivers and the port probe to
   split the packet path by destination. *)

module Sim = Pdq_engine.Sim
module Link = Pdq_net.Link
module Topology = Pdq_net.Topology
module Runner = Pdq_transport.Runner
module Scenario = Pdq_exec.Scenario
module Exec_opts = Pdq_exec.Exec_opts
module Trace = Pdq_telemetry.Trace
module Report = Pdq_check.Report
module Flowsim = Pdq_flowsim.Flowsim
module Builder = Pdq_topo.Builder

let now = Unix.gettimeofday

(* CPU seconds of the whole process, all domains (getrusage, so
   microsecond resolution). Unlike wall time it leaves out time the host
   gave to other tenants, which on a shared machine is most of the
   noise; a run on a single domain is timed with it. *)
let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type obs = {
  run_s : float;
      (** CPU seconds of the run ({!process_cpu}); [agg_checked_sweep]
          replaces it with the sweep slot's wall time. *)
  events : int;  (** Simulator events (flowsim: flow arrivals + departures). *)
  minor : float;  (** [Gc.minor_words] spent on the running domain. *)
  flows : int;  (** Flows that reached a final state. *)
  completed : int;
  terminated : int;
  aborted : int;
  sim_s : float;  (** Simulated seconds. *)
  digest : string;  (** Fold of the run's observable outputs. *)
  error : string option;  (** Why the run failed, if it did. *)
}

let failed_obs error =
  {
    run_s = 0.;
    events = 0;
    minor = 0.;
    flows = 0;
    completed = 0;
    terminated = 0;
    aborted = 0;
    sim_s = 0.;
    digest = "";
    error = Some error;
  }

(* {1 Output digests} *)

let add_float b x =
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
  Buffer.add_char b ';'

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_bool b v = Buffer.add_char b (if v then 'T' else 'F')

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let packet_digest (r : Runner.result) violations =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (f : Runner.flow_result) ->
      (match f.Runner.fct with Some x -> add_float b x | None -> Buffer.add_string b "-;");
      add_bool b f.Runner.met_deadline;
      add_bool b f.Runner.terminated;
      add_bool b f.Runner.aborted)
    r.Runner.flows;
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      add_int b v)
    r.Runner.counters;
  add_float b r.Runner.sim_end;
  List.iter (fun v -> Buffer.add_string b (Report.to_json v)) violations;
  hex b

let flowsim_digest (r : Flowsim.result) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (f : Flowsim.flow_result) ->
      (match f.Flowsim.fct with Some x -> add_float b x | None -> Buffer.add_string b "-;");
      add_bool b f.Flowsim.met_deadline;
      add_bool b f.Flowsim.terminated)
    r.Flowsim.flows;
  hex b

(* Digest of a list of per-run digests, in order. *)
let combine digests =
  let b = Buffer.create 256 in
  List.iter (Buffer.add_string b) digests;
  hex b

(* {1 Packet-path probe (traced runs only)} *)

type probe = {
  times : float array;  (** Seconds inside receivers: 0 = to a switch, 1 = to a host. *)
  counts : int array;  (** Deliveries: 0 = to a switch, 1 = to a host. *)
  mutable stored_sum : int;
  mutable paused_sum : int;
  mutable port_views : int;
  mutable stored_max : int;
  mutable trace_events : int;
  mutable delivered : int;
  mutable bytes_sent : int;
  mutable overflow : int;
}

let probe () =
  {
    times = Array.make 2 0.;
    counts = Array.make 2 0;
    stored_sum = 0;
    paused_sum = 0;
    port_views = 0;
    stored_max = 0;
    trace_events = 0;
    delivered = 0;
    bytes_sent = 0;
    overflow = 0;
  }

let merge_probe into p =
  for i = 0 to 1 do
    into.times.(i) <- into.times.(i) +. p.times.(i);
    into.counts.(i) <- into.counts.(i) + p.counts.(i)
  done;
  into.stored_sum <- into.stored_sum + p.stored_sum;
  into.paused_sum <- into.paused_sum + p.paused_sum;
  into.port_views <- into.port_views + p.port_views;
  into.stored_max <- max into.stored_max p.stored_max;
  into.trace_events <- into.trace_events + p.trace_events;
  into.delivered <- into.delivered + p.delivered;
  into.bytes_sent <- into.bytes_sent + p.bytes_sent;
  into.overflow <- into.overflow + p.overflow

(* Wrap every link receiver, the way [Adversary.install] does; the time
   inside is inclusive: router + switch port + forwarding enqueue at a
   switch, transport receive + ACK at a host. *)
let instrument p (built : Builder.built) =
  let topo = built.Builder.topo in
  Topology.iter_links
    (fun l ->
      let slot = if Topology.kind topo (Link.dst l) = Topology.Switch then 0 else 1 in
      let inner = Link.receiver l in
      Link.set_receiver l (fun pkt ->
          let t0 = now () in
          inner pkt;
          p.times.(slot) <- p.times.(slot) +. (now () -. t0);
          p.counts.(slot) <- p.counts.(slot) + 1))
    topo

let read_links p topo =
  Topology.iter_links
    (fun l ->
      p.delivered <- p.delivered + Link.delivered l;
      p.bytes_sent <- p.bytes_sent + Link.bytes_sent l;
      p.overflow <- p.overflow + Link.dropped_overflow l)
    topo

let probe_telemetry ~count_events p =
  {
    Runner.no_telemetry with
    Runner.sinks =
      (if count_events then [ Trace.callback (fun ~time:_ _ -> p.trace_events <- p.trace_events + 1) ]
       else []);
    port_probe =
      Some
        (fun ~now:_ (v : Runner.port_view) ->
          p.stored_sum <- p.stored_sum + v.Runner.stored;
          p.paused_sum <- p.paused_sum + v.Runner.paused;
          p.port_views <- p.port_views + 1;
          if v.Runner.stored > p.stored_max then p.stored_max <- v.Runner.stored);
  }

(* {1 Runs} *)

(* A wall budget per run: a run that hangs counts as a failure instead
   of stalling the benchmark. *)
let budget = Exec_opts.budget ~wall:60. ()

type traced = { recorder : Span.recorder; parent : int; probe : probe }

let open_flows (r : Runner.result) =
  Array.fold_left
    (fun acc (f : Runner.flow_result) ->
      if f.Runner.fct = None && (not f.Runner.terminated) && not f.Runner.aborted then acc + 1
      else acc)
    0 r.Runner.flows

let packet_error (r : Runner.result) =
  let n = open_flows r in
  if n > 0 then Some (Printf.sprintf "%d flows never reached a final state" n)
  else if r.Runner.aborted > 0 then Some (Printf.sprintf "%d flows aborted" r.Runner.aborted)
  else None

(* [Scenario.run] (or [Scenario.run_checked] when [checked]) of one
   scenario. Exceptions propagate: the caller decides whether they are
   failures (a timed-out budget raises [Sim.Cancelled]). *)
let packet_run ?traced ~checked (sc : Scenario.t) =
  let topo = ref None and t_prep = ref 0. in
  let prepare (b : Builder.built) =
    t_prep := now ();
    topo := Some b.Builder.topo;
    Option.iter (fun t -> instrument t.probe b) traced
  in
  let opts =
    match traced with
    | None -> Exec_opts.make ~budget ()
    | Some t -> Exec_opts.make ~budget ~telemetry:(probe_telemetry ~count_events:checked t.probe) ()
  in
  let m0 = Gc.minor_words () in
  let c0 = process_cpu () in
  let t0 = now () in
  let result, violations =
    if checked then
      let c = Scenario.run_checked ~opts ~prepare sc in
      (c.Scenario.result, c.Scenario.violations)
    else (Scenario.run ~opts ~prepare sc, [])
  in
  let t1 = now () in
  let c1 = process_cpu () in
  let minor = Gc.minor_words () -. m0 in
  let topo = Option.get !topo in
  let proto = Inputs.protocol_tag sc.Scenario.protocol in
  Option.iter
    (fun t ->
      read_links t.probe topo;
      let run = Span.fresh () in
      let r = t.recorder in
      let call = if checked then "Scenario.run_checked" else "Scenario.run" in
      let call_id = Span.fresh () in
      Span.add r { Span.id = run; parent = t.parent; run; name = "run"; detail = proto; start = t0; stop = t1 };
      Span.add r { Span.id = call_id; parent = run; run; name = call; detail = proto; start = t0; stop = t1 };
      Span.add r
        { Span.id = Span.fresh (); parent = call_id; run; name = "Scenario.build"; detail = proto; start = t0; stop = !t_prep };
      Span.add r
        { Span.id = Span.fresh (); parent = call_id; run; name = "Runner.execute"; detail = proto; start = !t_prep; stop = t1 })
    traced;
  let error =
    match packet_error result with
    | Some e -> Some e
    | None -> (
        match violations with
        | [] -> None
        | v :: _ ->
            Some (Printf.sprintf "%d violations, first: %s" (List.length violations) (Report.to_json v)))
  in
  let terminated =
    Array.fold_left (fun acc (f : Runner.flow_result) -> if f.Runner.terminated then acc + 1 else acc) 0 result.Runner.flows
  in
  ( {
      run_s = c1 -. c0;
      events = Sim.events_executed (Topology.sim topo);
      minor;
      flows = Array.length result.Runner.flows - open_flows result;
      completed = result.Runner.completed;
      terminated;
      aborted = result.Runner.aborted;
      sim_s = result.Runner.sim_end;
      digest = packet_digest result violations;
      error;
    },
    result,
    topo )

(* One [Flowsim.run]; an "event" of the flow-level model is a flow
   arrival or departure, two per flow. *)
let flowsim_run ?traced net proto specs =
  let m0 = Gc.minor_words () in
  let c0 = process_cpu () in
  let t0 = now () in
  let r = Flowsim.run net proto specs in
  let t1 = now () in
  let c1 = process_cpu () in
  let minor = Gc.minor_words () -. m0 in
  Option.iter
    (fun t ->
      let run = Span.fresh () in
      let tag = Inputs.flowsim_tag proto in
      Span.add t.recorder { Span.id = run; parent = t.parent; run; name = "run"; detail = tag; start = t0; stop = t1 };
      Span.add t.recorder
        { Span.id = Span.fresh (); parent = run; run; name = "Flowsim.run"; detail = tag; start = t0; stop = t1 })
    traced;
  let n = Array.length r.Flowsim.flows in
  let terminated =
    Array.fold_left (fun acc (f : Flowsim.flow_result) -> if f.Flowsim.terminated then acc + 1 else acc) 0 r.Flowsim.flows
  in
  let first_start = List.fold_left (fun acc (s : Flowsim.flow_spec) -> Float.min acc s.Flowsim.start) infinity specs in
  let last_done =
    Array.fold_left
      (fun acc (f : Flowsim.flow_result) ->
        match f.Flowsim.fct with Some x -> Float.max acc (f.Flowsim.spec.Flowsim.start +. x) | None -> acc)
      first_start r.Flowsim.flows
  in
  let open_flows = n - r.Flowsim.completed - terminated in
  {
    run_s = c1 -. c0;
    events = 2 * n;
    minor;
    flows = n - open_flows;
    completed = r.Flowsim.completed;
    terminated;
    aborted = 0;
    sim_s = (if n = 0 then 0. else last_done -. first_start);
    digest = flowsim_digest r;
    error = (if open_flows > 0 then Some (Printf.sprintf "%d flows never finished" open_flows) else None);
  }
