(* In-memory spans around the benchmark's calls into each layer.

   A span records one call: its name, wall-clock start and stop, the
   span that caused it, and the run it belongs to (every span of one
   simulation run shares the run id). Spans are kept in memory on the
   domain that records them and written as JSONL when the benchmark
   ends; self times are derived from them afterwards. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  run : int;  (** Shared by the spans of one run; 0 outside runs. *)
  name : string;
  detail : string;  (** e.g. the protocol name; may be empty. *)
  start : float;
  stop : float;
}

let next = Atomic.make 1
let fresh () = Atomic.fetch_and_add next 1

(* One recorder per domain and per run, so worker domains never share
   one. *)
type recorder = { mutable spans : t list }

let recorder () = { spans = [] }
let add r s = r.spans <- s :: r.spans
let spans r = r.spans

(* [record r ~parent ~run name f] times [f] as a child of [parent]. *)
let record r ~parent ~run name f =
  let id = fresh () in
  let start = Unix.gettimeofday () in
  let v = f id in
  add r { id; parent; run; name; detail = ""; start; stop = Unix.gettimeofday () };
  v

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]: the part of a
   parent's interval its children cover (parallel children overlap). *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        let a = max a lo and b = min b hi in
        if b <= a then (total, cur)
        else
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
          | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Per span name: (count, total seconds, self seconds), sorted by self
   time, largest first. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        ((s.start, s.stop)
        :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = duration s -. covered ~lo:s.start ~hi:s.stop kids in
      let n, tot, slf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. duration s, slf +. self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

(* Total duration of the spans called [name] (optionally restricted to
   one [detail]). *)
let total ?detail spans name =
  List.fold_left
    (fun acc s ->
      if s.name = name && (match detail with None -> true | Some d -> s.detail = d)
      then acc +. duration s
      else acc)
    0. spans

let to_json ~t0 s =
  let esc = Pdq_telemetry.Trace.json_escape in
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"run\": %d, \"name\": \"%s\", \
     \"detail\": \"%s\", \"start_s\": %.9f, \"dur_s\": %.9f}"
    s.id s.parent s.run (esc s.name) (esc s.detail) (s.start -. t0) (duration s)

let write_jsonl path spans =
  let spans = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) spans in
  let t0 = match spans with [] -> 0. | s :: _ -> s.start in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json ~t0 s); output_char oc '\n') spans;
  close_out oc
