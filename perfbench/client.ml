(* One client connection to an `fsdetect serve --jobs 1` child over its
   stdin/stdout: newline-delimited JSON-RPC, one request in flight. *)

module J = Analysis.Json

type t = { pid : int; to_child : out_channel; from_child : in_channel }

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--jobs"; "1" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_child = Unix.out_channel_of_descr in_w; from_child = Unix.in_channel_of_descr out_r }

let send c line =
  output_string c.to_child line;
  output_char c.to_child '\n';
  flush c.to_child

let recv c = input_line c.from_child

(* Round trip of one request line; returns the reply line. *)
let call c line =
  send c line;
  recv c

let line ~id ~meth params =
  Service.Jsonp.to_line (J.Obj [ ("id", J.Int id); ("method", J.Str meth); ("params", params) ])

(* Launch to first [ping] reply: the time until the server can take a
   request, on the wall clock and as the child's CPU time (which leaves
   out the time the host takes the CPU away), with the speed factor of
   the CPU just before the launch. *)
type setup = { wall : float; cpu : float; speed : float }

let start exe =
  let speed = Work.speed () in
  let t0 = Tr.now () in
  let c = spawn exe in
  let reply = call c (line ~id:0 ~meth:"ping" (J.Obj [])) in
  let wall = Tr.now () -. t0 in
  (match Service.Jsonp.parse reply with
  | Ok j when Service.Jsonp.member "result" j <> None -> ()
  | _ -> failwith ("serve did not answer ping: " ^ reply));
  (c, { wall; cpu = Work.cpu_s (string_of_int c.pid); speed })

let stop c =
  (try send c (line ~id:(-1) ~meth:"shutdown" (J.Obj [])) with Sys_error _ -> ());
  (try ignore (recv c) with End_of_file | Sys_error _ -> ());
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  ignore (Unix.waitpid [] c.pid)
