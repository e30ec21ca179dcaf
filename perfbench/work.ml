(* What the workloads share: request entries, seeded shuffles, order
   statistics and the result record. *)

type entry = {
  key : string;  (** row of the expected-verdict table *)
  kind : string;  (** lint, fix, explain, analyze or sym_lint *)
  req : Service.Req.t;
  replay : unit -> unit;  (** the traced layer chain of this request *)
  check : Service.Api.payload -> (unit, string) result;
      (** reference checks beyond the table, run outside the timed window *)
}

(* One timed request: its wall-clock time, the CPU time the process
   doing the analysis spent on it, and the speed factor of the CPU at
   the time (see {!speed}).  The CPU clock (getrusage for this process,
   schedstat for the serve child) leaves out the time the host takes the
   CPU away (steal) and run-queue waits, which on a shared machine swing
   the wall clock by tens of percent between runs. *)
type sample = { key : string; wall : float; cpu : float; speed : float }

(* Wall and CPU time of [f ()] run in this process (all its domains). *)
let timed_self f =
  let c0 = Sys.time () in
  let wall, r = Tr.timed f in
  ({ key = ""; wall; cpu = Sys.time () -. c0; speed = 1. }, r)

(* Speed of the CPU this thread runs on, as the factor that scales a time
   measured now to a reference speed.  On a shared virtual machine each
   vCPU goes through phases, from seconds to minutes long, in which the
   same code runs up to 1.7x slower (other load on the host); the CPU
   clock counts that time as the program's own.  The factor is
   [nominal / c], where [c] is the best CPU time of three runs of a fixed
   loop of the benchmark's own (integer mixing over a 256 KiB array, no
   allocation), taken just before the samples it scales, on the same
   thread, and [nominal] is that loop's time in the machine's fast
   phase. *)
let calib_buf = Array.make 32768 0

let calib_loop () =
  let a = calib_buf and h = ref 0 in
  for i = 0 to 32_767 do
    let j = (!h + i) land 32767 in
    h := (!h * 31) + a.(j) + i;
    a.(j) <- !h land 0xffff
  done;
  ignore (Sys.opaque_identity !h)

let nominal = 0.2e-3

let speed () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let c0 = Sys.time () in
    calib_loop ();
    best := Float.min !best (Sys.time () -. c0)
  done;
  nominal /. Float.max !best 1e-6

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest whole percentile with at least ten samples above it:
   returns (percentile, value).  Nearest-rank on the sorted samples. *)
let tail l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n < 11 then (100, a.(n - 1))
  else
    let p = 100 * (n - 10) / n in
    let rank = max 1 (int_of_float (Float.ceil (float_of_int (p * n) /. 100.))) in
    (p, a.(min (n - 1) (rank - 1)))

(* Each deck entry's latency is its best over the passes of a run:
   interference from other load only ever adds time, so the minimum of
   repeated measurements is the steadiest estimate.  The order
   statistics of a run then rank the same deck whatever the number of
   passes. *)
let best l = List.fold_left Float.min infinity l

let per_entry clock (samples : sample list) =
  let t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace t s.key (clock s :: Option.value ~default:[] (Hashtbl.find_opt t s.key)))
    samples;
  List.sort compare (Hashtbl.fold (fun k vs acc -> (k, best vs) :: acc) t [])

let per_entry_best clock samples = List.map snd (per_entry clock samples)
let wall s = s.wall
let cpu s = s.cpu

let read_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

(* CPU time of every thread of process [pid], from
   /proc/<pid>/task/*/schedstat, in seconds.  The kernel brings a
   thread's count up to date only when it leaves the CPU, so this first
   waits (briefly) until no thread of [pid] is running. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  let tasks = try Sys.readdir dir with Sys_error _ -> [||] in
  let running t =
    try
      let l = read_line (Printf.sprintf "%s/%s/stat" dir t) in
      (* the state follows the parenthesised command name *)
      l.[String.rindex l ')' + 2] = 'R'
    with _ -> false
  in
  let rec settle n = if n > 0 && Array.exists running tasks then settle (n - 1) in
  settle 200;
  Array.fold_left
    (fun acc t ->
      try
        acc
        +. Scanf.sscanf (read_line (Printf.sprintf "%s/%s/schedstat" dir t)) "%d" (fun ns ->
               float_of_int ns *. 1e-9)
      with _ -> acc)
    0. tasks

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  try
    let ic = open_in path in
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    let v = go () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* Outcome of one workload run. *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable counts : (string * float) list;  (** must repeat exactly per seed *)
  mutable notes : (string * Analysis.Json.t) list;  (** run record extras *)
}

let new_result () =
  { attempted = 0; failed = 0; failures = []; metrics = []; counts = []; notes = [] }

let attempt r = function
  | Ok () -> r.attempted <- r.attempted + 1
  | Error m ->
      r.attempted <- r.attempted + 1;
      r.failed <- r.failed + 1;
      r.failures <- m :: r.failures

let metric r name unit v = r.metrics <- r.metrics @ [ (name, v, unit) ]
let note r name v = r.notes <- r.notes @ [ (name, v) ]

(* Checks run in order; the first failure wins. *)
let ( >>> ) a b = match a with Ok () -> b () | Error _ as e -> e

let guard f = try f () with e -> Error ("raised " ^ Printexc.to_string e)
