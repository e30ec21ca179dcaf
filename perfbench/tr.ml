(* Clock, spans and counters of the traced run.

   Spans are recorded only by the benchmark's own code, around its calls
   into the program's layers; nothing inside the library is
   instrumented.  They are kept in memory (name, start, end, parent,
   request id) and written out once, at the end of the run.  A layer's
   self time is its span minus the time its child spans cover; the
   replay is single-threaded, so children never overlap. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

type span = {
  id : int;
  parent : int;  (** [-1] for a top-level (layer) span of a request *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let request = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        current := parent;
        spans := { id; parent; req = !request; name; t0; t1 } :: !spans)
      f
  end

(* Counters; the untraced run bumps only those the program exposes
   itself (engine runs, simulator accesses, cache statistics). *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let count name = add name 1.
let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Per-request accounting: the [Api.exec] wall time of each request and
   the sum of its top-level layer spans. *)
let exec_walls : (int * float) list ref = ref []

let begin_request () =
  incr request;
  !request

let record_exec_wall req wall = exec_walls := (req, wall) :: !exec_walls

let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    !spans;
  self

(* Sum of top-level span time per request, leaving out the protocol
   decoding that happens outside [Api.exec]. *)
let layer_time_by_request () =
  let t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent < 0 && s.name <> "serve.decode" then
        Hashtbl.replace t s.req
          (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt t s.req)))
    !spans;
  t

(* Cost of recording one span, measured on empty nested spans; times
   the number of spans recorded it is the tracing overhead of the run. *)
let span_cost () =
  let saved = (!spans, !next_id, !enabled) in
  enabled := true;
  let n = 20_000 in
  let dt, () =
    timed (fun () ->
        for _ = 1 to n do
          span "calibrate" (fun () -> span "calibrate" ignore)
        done)
  in
  let s, id, e = saved in
  spans := s;
  next_id := id;
  enabled := e;
  dt /. float_of_int (2 * n)

(* The spans, then one record per request with its [Api.exec] wall
   time, as a JSON list. *)
let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iter
    (fun (req, wall) -> Printf.fprintf oc "{\"req\":%d,\"exec_wall\":%.9f},\n" req wall)
    (List.rev !exec_walls);
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.req s.name s.t0 s.t1)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc
