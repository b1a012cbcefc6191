module Rng = Pdq_engine.Rng
module Heap = Pdq_engine.Heap
module Profiler = Pdq_engine.Profiler

type criticality_mode = Perfect | Random_criticality | Size_estimation of int

type pdq_opts = {
  early_termination : bool;
  aging_rate : float option;
  criticality : criticality_mode;
}

let pdq_defaults =
  { early_termination = true; aging_rate = None; criticality = Perfect }

type proto = Pdq of pdq_opts | Rcp | D3

type flow_spec = {
  fs_id : int;
  path : int array;
  size : int;
  deadline : float option;
  start : float;
}

type flow_result = {
  spec : flow_spec;
  fct : float option;
  met_deadline : bool;
  terminated : bool;
}

type result = {
  flows : flow_result array;
  application_throughput : float;
  mean_fct : float;
  max_fct : float;
  completed : int;
}

type net = { capacity : float array }

let net_of_topology topo =
  {
    capacity =
      Array.init (Pdq_net.Topology.link_count topo) (fun i ->
          Pdq_net.Link.rate (Pdq_net.Topology.link topo i));
  }

(* Per-flow numeric state. All fields are floats, so the record is
   stored flat and a write boxes nothing. Sizes are bits of goodput.
   A flow sorts on (key0, key1, key2, fs_id), stably:
   - PDQ Perfect: (0 with a deadline else 1, deadline or 0, T);
   - PDQ Random_criticality: (0, random priority, 0);
   - PDQ Size_estimation: (0, estimate level, 0);
   - D3: (0, start, 0), i.e. arrival order. *)
type fl = {
  nic : float; (* min capacity along the path: max possible rate *)
  deadline : float; (* absolute; meaningful when [spec.deadline <> None] *)
  mutable remaining : float;
  mutable rate : float;
  mutable done_at : float; (* meaningful once the fate is [completed] *)
  mutable waited : float; (* cumulative paused time (aging) *)
  key0 : float;
  mutable key1 : float;
  mutable key2 : float;
}

(* A flow's fate, one byte per flow: open (pending or live), completed
   or terminated (early-terminated / quenched). *)
let completed = 'c'
let terminated = 't'

(* Per-run state, allocated once per run; a step allocates nothing. *)
type ws = {
  proto : proto;
  specs : flow_spec array;
  fl : fl array;
  fate : Bytes.t;
  live : int array;
      (* Admitted open flows, oldest first. "Live order" — the order
         the rate models see — is newest-admitted first, i.e. this
         array read backwards. *)
  mutable nlive : int;
  order : int array; (* the live flows in sort order *)
  tmp : int array; (* merge scratch: the left half of a merge *)
  capacity : float array;
  residual : float array; (* per link: PDQ/RCP residual, D3 unreserved *)
  count : int array; (* per link: RCP unfrozen flows, D3 flows *)
  demand : float array; (* D3: per-link requested rate *)
  fs : float array; (* D3: per-link fair share, kept across steps *)
  mstart : int array;
      (* RCP: the flows crossing link [l] are
         [members.(mstart.(l)) .. members.(mstart.(l+1) - 1)], in
         reverse live order (each occurrence of [l] in a path counts) *)
  mutable members : int array; (* grown on demand *)
  heap : Heap.t;
  now : float array; (* one cell: the current step's time *)
}

let bits_of_bytes b = 8. *. float_of_int b

(* [Stdlib.min]/[max] semantics on unboxed floats. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let cmp_flows ws i j =
  let a = ws.fl.(i) and b = ws.fl.(j) in
  let c = Float.compare a.key0 b.key0 in
  if c <> 0 then c
  else
    let c = Float.compare a.key1 b.key1 in
    if c <> 0 then c
    else
      let c = Float.compare a.key2 b.key2 in
      if c <> 0 then c else compare (ws.specs.(i).fs_id : int) ws.specs.(j).fs_id

(* Stable merge sort of [ws.order.(lo .. hi-1)] by [cmp_flows]. *)
let rec sort_range ws lo hi =
  let a = ws.order in
  if hi - lo <= 12 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cmp_flows ws a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_range ws lo mid;
    sort_range ws mid hi;
    if cmp_flows ws a.(mid - 1) a.(mid) > 0 then begin
      let t = ws.tmp and n = mid - lo in
      Array.blit a lo t 0 n;
      let i = ref 0 and j = ref mid and k = ref lo in
      while !i < n do
        if !j < hi && cmp_flows ws a.(!j) t.(!i) < 0 then begin
          a.(!k) <- a.(!j);
          incr j
        end
        else begin
          a.(!k) <- t.(!i);
          incr i
        end;
        incr k
      done
    end
  end

(* [ws.order] := the live flows in live order, stably sorted. *)
let sort_live ws =
  let n = ws.nlive in
  for i = 0 to n - 1 do
    ws.order.(i) <- ws.live.(n - 1 - i)
  done;
  sort_range ws 0 n

(* Infeasibility check for Early Termination / quenching. *)
let infeasible ws f =
  match ws.specs.(f).deadline with
  | None -> false
  | Some _ ->
      let x = ws.fl.(f) and now = ws.now.(0) in
      now >= x.deadline || now +. (x.remaining /. x.nic) > x.deadline

let terminate ws f =
  Bytes.set ws.fate f terminated;
  ws.fl.(f).rate <- 0.

(* PDQ: criticality-ordered water-filling. *)
let pdq_rates ws opts =
  Array.blit ws.capacity 0 ws.residual 0 (Array.length ws.capacity);
  (match opts.criticality with
  | Perfect ->
      for i = 0 to ws.nlive - 1 do
        let x = ws.fl.(ws.live.(i)) in
        let ttx = x.remaining /. x.nic in
        x.key2 <-
          (match opts.aging_rate with
          (* [Pdq_core.Criticality.aged_tx_time], written out so that no
             float crosses a module boundary. *)
          | Some alpha -> ttx /. (2. ** (alpha *. (x.waited /. 0.1)))
          | None -> ttx)
      done
  | Random_criticality | Size_estimation _ -> ());
  sort_live ws;
  let residual = ws.residual in
  for k = 0 to ws.nlive - 1 do
    let f = ws.order.(k) in
    if opts.early_termination && infeasible ws f then terminate ws f
    else begin
      let x = ws.fl.(f) and path = ws.specs.(f).path in
      let r = ref x.nic in
      for h = 0 to Array.length path - 1 do
        r := fmin !r residual.(path.(h))
      done;
      let r = fmax 0. !r in
      x.rate <- r;
      if r > 0. then
        for h = 0 to Array.length path - 1 do
          let l = path.(h) in
          residual.(l) <- residual.(l) -. r
        done
    end
  done

let rcp_push ws l =
  if ws.count.(l) > 0 then begin
    (Heap.cell ws.heap).(0) <- ws.residual.(l) /. float_of_int ws.count.(l);
    Heap.push_cell ws.heap l
  end

(* RCP: global max-min fairness via water-filling with a lazy heap of
   per-link fair shares. *)
let rcp_rates ws =
  let nlinks = Array.length ws.capacity in
  let residual = ws.residual and count = ws.count in
  Array.blit ws.capacity 0 residual 0 nlinks;
  Array.fill count 0 nlinks 0;
  for i = 0 to ws.nlive - 1 do
    let f = ws.live.(i) in
    ws.fl.(f).rate <- -1.;
    let path = ws.specs.(f).path in
    for h = 0 to Array.length path - 1 do
      count.(path.(h)) <- count.(path.(h)) + 1
    done
  done;
  (* Counting sort into buckets: [mstart.(l)] starts at the end of
     bucket [l] and moves down as the bucket fills from the back, in
     live order, so each bucket ends up in reverse live order. *)
  let mstart = ws.mstart in
  for l = 0 to nlinks - 1 do
    mstart.(l + 1) <- mstart.(l) + count.(l)
  done;
  let total = mstart.(nlinks) in
  if total > Array.length ws.members then
    ws.members <- Array.make (max total (2 * Array.length ws.members)) 0;
  Array.blit mstart 1 mstart 0 nlinks;
  for i = ws.nlive - 1 downto 0 do
    let f = ws.live.(i) in
    let path = ws.specs.(f).path in
    for h = 0 to Array.length path - 1 do
      let l = path.(h) in
      mstart.(l) <- mstart.(l) - 1;
      ws.members.(mstart.(l)) <- f
    done
  done;
  let heap = ws.heap in
  let cell = Heap.cell heap in
  Heap.clear heap;
  for l = 0 to nlinks - 1 do
    rcp_push ws l
  done;
  while not (Heap.is_empty heap) do
    let l = Heap.pop heap in
    if count.(l) > 0 then begin
      let fair = residual.(l) /. float_of_int count.(l) in
      if fair > cell.(0) +. 1e-6 then begin
        (* Stale entry: requeue with the current fair share. *)
        cell.(0) <- fair;
        Heap.push_cell heap l
      end
      else
        (* Freeze this link: all its unassigned flows are bottlenecked
           here. *)
        for k = ws.mstart.(l) to ws.mstart.(l + 1) - 1 do
          let f = ws.members.(k) in
          let x = ws.fl.(f) in
          if x.rate < 0. then begin
            x.rate <- fmax 0. fair;
            let path = ws.specs.(f).path in
            for h = 0 to Array.length path - 1 do
              let m = path.(h) in
              count.(m) <- count.(m) - 1;
              if m <> l then begin
                residual.(m) <- residual.(m) -. x.rate;
                rcp_push ws m
              end
            done
          end
        done
    end
  done;
  for i = 0 to ws.nlive - 1 do
    let x = ws.fl.(ws.live.(i)) in
    if x.rate < 0. then x.rate <- 0.
  done

(* D3: greedy first-come-first-reserve per link in flow arrival order,
   plus the previous step's non-negative fair share [ws.fs]. *)
let d3_rates ws =
  let nlinks = Array.length ws.capacity in
  let avail = ws.residual and demand = ws.demand and counts = ws.count in
  let fs = ws.fs and now = ws.now.(0) in
  Array.blit ws.capacity 0 avail 0 nlinks;
  Array.fill demand 0 nlinks 0.;
  Array.fill counts 0 nlinks 0;
  sort_live ws;
  for k = 0 to ws.nlive - 1 do
    let f = ws.order.(k) in
    let x = ws.fl.(f) and spec = ws.specs.(f) in
    let request =
      match spec.deadline with
      | Some _ when x.deadline > now -> x.remaining /. (x.deadline -. now)
      | Some _ -> x.nic
      | None -> 0.
    in
    (* Quenching. *)
    if infeasible ws f then terminate ws f
    else begin
      let path = spec.path in
      let alloc = ref x.nic in
      for h = 0 to Array.length path - 1 do
        let l = path.(h) in
        alloc := fmin !alloc (fmin (request +. fs.(l)) avail.(l))
      done;
      let alloc = fmax 0. !alloc in
      x.rate <- alloc;
      for h = 0 to Array.length path - 1 do
        let l = path.(h) in
        avail.(l) <- avail.(l) -. alloc;
        demand.(l) <- demand.(l) +. request;
        counts.(l) <- counts.(l) + 1
      done
    end
  done;
  (* Fair share for the next interval (non-negative, as in §5.1). *)
  for l = 0 to nlinks - 1 do
    if counts.(l) > 0 then
      fs.(l) <- fmax 0. ((ws.capacity.(l) -. demand.(l)) /. float_of_int counts.(l))
    else fs.(l) <- ws.capacity.(l)
  done

(* Advance remaining work by one step of [dt], interpolating completion
   times within the step, and compact the live set (stably) past the
   flows that completed or were terminated. Returns how many flows
   reached a final state. The goodput factor models header overhead. *)
let advance ws ~dt ~goodput_factor =
  let now = ws.now.(0) in
  let closed = ref 0 and kept = ref 0 in
  for i = 0 to ws.nlive - 1 do
    let f = ws.live.(i) in
    let x = ws.fl.(f) in
    let goodput = x.rate *. goodput_factor in
    let finished =
      if Bytes.get ws.fate f = terminated then true
      else if goodput <= 0. then begin
        x.waited <- x.waited +. dt;
        false
      end
      else if goodput *. dt >= x.remaining then begin
        x.done_at <- now +. (x.remaining /. goodput);
        x.remaining <- 0.;
        Bytes.set ws.fate f completed;
        true
      end
      else begin
        x.remaining <- x.remaining -. (goodput *. dt);
        (match ws.proto with
        | Pdq { criticality = Size_estimation quantum; _ } ->
            let sent_bytes = ws.specs.(f).size - int_of_float (x.remaining /. 8.) in
            x.key1 <- float_of_int (sent_bytes / max 1 quantum)
        | _ -> ());
        false
      end
    in
    if finished then incr closed
    else begin
      ws.live.(!kept) <- f;
      incr kept
    end
  done;
  ws.nlive <- !kept;
  !closed

(* One profiler event per rate recomputation when a global profiler is
   enabled at the start of the run. It carries no CPU time: the
   profiler's action CPU stays that of simulator events. *)
let step_kind = Pdq_engine.Kind.register "flowsim.step"

let workspace (net : net) proto specs ~goodput_factor ~seed =
  let rng = Rng.create seed in
  let nlinks = Array.length net.capacity in
  let nf = Array.length specs in
  let fl =
    Array.map
      (fun spec ->
        let nic = Array.fold_left (fun acc l -> fmin acc net.capacity.(l)) infinity spec.path in
        let rand_crit = Rng.float rng in
        let deadline = match spec.deadline with Some d -> spec.start +. d | None -> nan in
        let key0, key1 =
          match proto with
          | Pdq { criticality = Perfect; _ } ->
              if spec.deadline = None then (1., 0.) else (0., deadline)
          | Pdq { criticality = Random_criticality; _ } -> (0., rand_crit)
          | Pdq { criticality = Size_estimation _; _ } | Rcp -> (0., 0.)
          | D3 -> (0., spec.start)
        in
        {
          nic = nic *. goodput_factor;
          deadline;
          remaining = bits_of_bytes spec.size;
          rate = 0.;
          done_at = 0.;
          waited = 0.;
          key0;
          key1;
          key2 = 0.;
        })
      specs
  in
  let rcp = proto = Rcp and d3 = proto = D3 in
  let links_if b v = if b then Array.make nlinks v else [||] in
  {
    proto;
    specs;
    fl;
    fate = Bytes.make nf '\000';
    live = Array.make nf 0;
    nlive = 0;
    order = Array.make nf 0;
    tmp = Array.make ((nf + 1) / 2) 0;
    capacity = net.capacity;
    residual = Array.make nlinks 0.;
    count = links_if (rcp || d3) 0;
    demand = links_if d3 0.;
    fs = links_if d3 0.;
    mstart = (if rcp then Array.make (nlinks + 1) 0 else [||]);
    members = [||];
    heap = Heap.create ~capacity:(if rcp then 256 else 1) ();
    now = [| 0. |];
  }

let run ?(dt = 1e-3) ?(init_latency = 5e-4) ?(header_overhead = 56. /. 1500.)
    ?(seed = 1) ?(horizon = 60.) (net : net) proto specs =
  let goodput_factor = 1. -. header_overhead in
  let specs = Array.of_list specs in
  let nf = Array.length specs in
  let ws = workspace net proto specs ~goodput_factor ~seed in
  (* Admission order: (start, fs_id), stable. *)
  let pending = Array.init nf Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Float.compare specs.(i).start specs.(j).start in
      if c <> 0 then c else compare (specs.(i).fs_id : int) specs.(j).fs_id)
    pending;
  let next = ref 0 in
  ws.now.(0) <- (if nf = 0 then 0. else specs.(pending.(0)).start);
  let open_flows = ref nf in
  let slot = Option.map Profiler.slot (Profiler.global ()) in
  while !open_flows > 0 && ws.now.(0) < horizon do
    (* Admit flows whose init latency elapsed. *)
    while
      !next < nf && specs.(pending.(!next)).start +. init_latency <= ws.now.(0) +. 1e-12
    do
      ws.live.(ws.nlive) <- pending.(!next);
      ws.nlive <- ws.nlive + 1;
      incr next
    done;
    (match proto with
    | Pdq opts -> pdq_rates ws opts
    | Rcp -> rcp_rates ws
    | D3 -> d3_rates ws);
    open_flows := !open_flows - advance ws ~dt ~goodput_factor;
    (match slot with
    | Some s ->
        Profiler.record_event s ~kind:step_kind ~cpu:0.;
        Profiler.record_advance s dt
    | None -> ());
    ws.now.(0) <- ws.now.(0) +. dt
  done;
  let results =
    Array.mapi
      (fun f spec ->
        let x = ws.fl.(f) and fate = Bytes.get ws.fate f in
        let fct = if fate = completed then Some (x.done_at -. spec.start) else None in
        let met =
          fate = completed && match spec.deadline with Some _ -> x.done_at <= x.deadline | None -> true
        in
        { spec; fct; met_deadline = met; terminated = fate = terminated })
      specs
  in
  let completed = ref 0 and fct_sum = ref 0. and max_fct = ref 0. in
  let with_deadline = ref 0 and met = ref 0 in
  for f = 0 to nf - 1 do
    let r = results.(f) in
    (match r.fct with
    | Some x ->
        incr completed;
        fct_sum := !fct_sum +. x;
        max_fct := fmax !max_fct x
    | None -> ());
    if r.spec.deadline <> None then begin
      incr with_deadline;
      if r.met_deadline then incr met
    end
  done;
  {
    flows = results;
    application_throughput =
      (if !with_deadline = 0 then 1. else float_of_int !met /. float_of_int !with_deadline);
    mean_fct = (if !completed = 0 then 0. else !fct_sum /. float_of_int !completed);
    max_fct = !max_fct;
    completed = !completed;
  }
