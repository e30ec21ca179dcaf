(* Drives `fsdetect serve` as a subprocess through the JSON-RPC protocol.

   Three modes:

     serve_runner.exe EXE OUT
       Scripted single-worker session (--jobs 1, so the transcript is
       FIFO-deterministic): happy path, cache hits, parse / type /
       unbound-parameter errors carried as payloads, malformed JSON and
       protocol errors, a mixed batch, cache_stats, shutdown.  The raw
       request/response transcript is written to OUT and diffed against
       golden/serve.out by runtest, followed by a deterministic summary
       of a concurrent 4-worker session (all ids answered exactly once).

     serve_runner.exe --smoke EXE
       Two identical mixed batches over every bundled kernel in one
       session; asserts the second (cache-warm) pass is at least 5x
       faster and byte-identical, and prints the timings.  Wired into
       `make serve-smoke`. *)

module J = Analysis.Json

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let obj fields = J.Obj fields
let line j = Service.Jsonp.to_line j

let request id meth params =
  line
    (obj
       [ ("id", id); ("method", J.Str meth); ("params", obj params) ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spawn exe args =
  Unix.open_process_args exe (Array.of_list (exe :: args))

(* ------------------------------------------------------------------ *)
(* Golden transcript (one worker: deterministic order)                 *)
(* ------------------------------------------------------------------ *)

let fixture_params ?(extra = []) path =
  [ ("source", J.Str (read_file path)); ("name", J.Str path) ] @ extra

let transcript exe buf =
  let ((ic, oc) as proc) = spawn exe [ "serve"; "--jobs"; "1" ] in
  let req ?(expect = 1) r =
    Buffer.add_string buf ("<< " ^ r ^ "\n");
    send oc r;
    for _ = 1 to expect do
      Buffer.add_string buf (">> " ^ input_line ic ^ "\n")
    done
  in
  let int_id i = J.Int i in
  (* protocol basics *)
  req (request (int_id 1) "ping" []);
  req (request (int_id 2) "version" []);
  req "this is not json";
  req (line (obj [ ("id", int_id 3) ]));
  req (line (obj [ ("id", int_id 4); ("method", J.Int 42) ]));
  req (request (int_id 5) "frobnicate" []);
  (* analyses: a kernel lint twice (second is a cache hit, same bytes) *)
  req (request (int_id 6) "lint" [ ("kernel", J.Str "saxpy") ]);
  req (request (int_id 7) "lint" [ ("kernel", J.Str "saxpy") ]);
  (* inline sources: clean, parse error, type error, unbound parameter *)
  req
    (request (int_id 8) "lint"
       (fixture_params "fixtures/struct_adjacent.c"));
  req (request (int_id 9) "lint" (fixture_params "fixtures/bad_syntax.c"));
  req (request (int_id 10) "lint" (fixture_params "fixtures/bad_type.c"));
  req
    (request (int_id 11) "analyze"
       (fixture_params "fixtures/parametric_stride.c"
          ~extra:[ ("func", J.Str "scale") ]));
  (* bad params *)
  req (request (int_id 12) "dump" [ ("kernel", J.Str "bogus") ]);
  req
    (request (int_id 13) "lint"
       [ ("kernel", J.Str "saxpy"); ("source", J.Str "int x;") ]);
  (* a mixed batch: results stream in order with one worker *)
  req ~expect:5
    (request (int_id 14) "batch"
       [
         ( "requests",
           J.List
             [
               obj
                 [
                   ("method", J.Str "advise");
                   ("params", obj [ ("kernel", J.Str "saxpy") ]);
                 ];
               obj
                 [
                   ("method", J.Str "lint");
                   ("params", obj [ ("kernel", J.Str "saxpy") ]);
                 ];
               obj
                 [
                   ("method", J.Str "dump");
                   ("params", obj [ ("kernel", J.Str "bogus") ]);
                 ];
               obj [ ("method", J.Str "frobnicate") ];
             ] );
       ]);
  req (request (int_id 15) "batch" []);
  (* deterministic counters after a deterministic script *)
  req (request (int_id 16) "cache_stats" []);
  (* a loop bound that divides by zero is an analysis error payload
     (exit code 1), and a chunk below 1 is a bad parameter *)
  req
    (request (int_id 18) "explain"
       [
         ( "source",
           J.Str
             "double a[64];\nint k;\n\nvoid f() {\n  #pragma omp parallel \
              for\n  for (int i = 0; i < 64 / k; i++) {\n    a[i] = 1.0;\n  \
              }\n}\n" );
         ("params", obj [ ("k", J.Int 0) ]);
       ]);
  req
    (request (int_id 19) "lint"
       [ ("kernel", J.Str "saxpy"); ("chunk", J.Int 0) ]);
  req (request (int_id 17) "shutdown" []);
  (try
     while true do
       Buffer.add_string buf (">> " ^ input_line ic ^ "\n")
     done
   with End_of_file -> ());
  ignore (Unix.close_process proc)

(* ------------------------------------------------------------------ *)
(* Concurrent session: every id answered exactly once                  *)
(* ------------------------------------------------------------------ *)

let member name j = Service.Jsonp.member name j

let concurrent exe buf =
  let singles = 20 and batches = 2 and items = 4 in
  let kernels = [| "saxpy"; "stencil1d"; "transpose"; "matvec" |] in
  let ((ic, oc) as proc) = spawn exe [ "serve"; "--jobs"; "4" ] in
  let writer () =
    for i = 0 to singles - 1 do
      send oc
        (request
           (J.Str (Printf.sprintf "s%d" i))
           "lint"
           [
             ("kernel", J.Str kernels.(i mod Array.length kernels));
             ("threads", J.Int (2 + (i mod 3)));
           ])
    done;
    for b = 0 to batches - 1 do
      send oc
        (request
           (J.Str (Printf.sprintf "b%d" b))
           "batch"
           [
             ( "requests",
               J.List
                 (List.init items (fun i ->
                      obj
                        [
                          ("method", J.Str "advise");
                          ( "params",
                            obj
                              [
                                ( "kernel",
                                  J.Str kernels.(i mod Array.length kernels)
                                );
                              ] );
                        ])) );
           ])
    done;
    send oc "{broken";
    send oc (request (J.Str "quit") "shutdown" [])
  in
  let w = Domain.spawn writer in
  let tally = Hashtbl.create 64 in
  let count key = Hashtbl.replace tally key (1 + try Hashtbl.find tally key with Not_found -> 0) in
  let lines = ref 0 in
  (try
     while true do
       let l = input_line ic in
       incr lines;
       match Service.Jsonp.parse l with
       | Error e -> failwith ("unparsable response: " ^ e)
       | Ok j -> (
           let id =
             match member "id" j with
             | Some (J.Str s) -> s
             | Some J.Null -> "<null>"
             | _ -> failwith ("response without id: " ^ l)
           in
           match (member "item" j, member "done" j) with
           | Some (J.Int i), _ -> count (Printf.sprintf "%s#%d" id i)
           | _, Some (J.Bool true) -> count (id ^ "#done")
           | _ -> count id)
     done
   with End_of_file -> ());
  Domain.join w;
  ignore (Unix.close_process proc);
  let expect = ref [] in
  for i = 0 to singles - 1 do
    expect := Printf.sprintf "s%d" i :: !expect
  done;
  for b = 0 to batches - 1 do
    expect := Printf.sprintf "b%d#done" b :: !expect;
    for i = 0 to items - 1 do
      expect := Printf.sprintf "b%d#%d" b i :: !expect
    done
  done;
  expect := "<null>" :: "quit" :: !expect;
  List.iter
    (fun key ->
      match Hashtbl.find_opt tally key with
      | Some 1 -> ()
      | Some n -> failwith (Printf.sprintf "id %s answered %d times" key n)
      | None -> failwith (Printf.sprintf "id %s never answered" key))
    !expect;
  if Hashtbl.length tally <> List.length !expect then
    failwith "unexpected extra responses";
  Buffer.add_string buf
    (Printf.sprintf
       "== concurrent (4 jobs): %d singles + %d batches of %d + 1 \
        protocol error: %d responses, every id exactly once\n"
       singles batches items !lines)

(* ------------------------------------------------------------------ *)
(* Smoke: warm pass >= 5x faster, byte-identical                       *)
(* ------------------------------------------------------------------ *)

let smoke exe =
  let ((ic, oc) as proc) = spawn exe [ "serve" ] in
  let names = Kernels.Registry.names () in
  let batch id =
    request (J.Str id) "batch"
      [
        ( "requests",
          J.List
            (List.concat_map
               (fun k ->
                 [
                   obj
                     [
                       ("method", J.Str "lint");
                       ("params", obj [ ("kernel", J.Str k) ]);
                     ];
                   obj
                     [
                       ("method", J.Str "explain");
                       ("params", obj [ ("kernel", J.Str k) ]);
                     ];
                 ])
               names) );
      ]
  in
  let items = 2 * List.length names in
  let run_pass id =
    let results = Hashtbl.create items in
    let t0 = Unix.gettimeofday () in
    send oc (batch id);
    let rec drain () =
      let l = input_line ic in
      match Service.Jsonp.parse l with
      | Error e -> failwith ("unparsable response: " ^ e)
      | Ok j -> (
          match (member "item" j, member "done" j) with
          | Some (J.Int i), _ ->
              Hashtbl.replace results i l;
              drain ()
          | _, Some (J.Bool true) -> ()
          | _ -> failwith ("unexpected response: " ^ l))
    in
    drain ();
    let dt = Unix.gettimeofday () -. t0 in
    if Hashtbl.length results <> items then
      failwith
        (Printf.sprintf "pass %s: %d/%d items answered" id
           (Hashtbl.length results) items);
    (dt, results)
  in
  let cold_t, cold = run_pass "cold" in
  let warm_t, warm = run_pass "warm" in
  send oc (request (J.Str "quit") "shutdown" []);
  ignore (input_line ic);
  ignore (Unix.close_process proc);
  let strip_id l =
    (* responses differ only in the batch id; normalize before compare *)
    match Service.Jsonp.parse l with
    | Ok (J.Obj fields) ->
        line (J.Obj (List.filter (fun (k, _) -> k <> "id") fields))
    | _ -> l
  in
  for i = 0 to items - 1 do
    let c = strip_id (Hashtbl.find cold i)
    and w = strip_id (Hashtbl.find warm i) in
    if c <> w then failwith (Printf.sprintf "item %d differs warm vs cold" i)
  done;
  let speedup = cold_t /. warm_t in
  Printf.printf
    "serve-smoke: %d requests  cold %.3fs  warm %.3fs  speedup %.0fx\n"
    items cold_t warm_t speedup;
  if speedup < 5.0 then begin
    Printf.eprintf "serve-smoke: warm pass only %.1fx faster (need >= 5x)\n"
      speedup;
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "--smoke"; exe ] -> smoke exe
  | [ _; exe; out ] ->
      let buf = Buffer.create 65536 in
      transcript exe buf;
      concurrent exe buf;
      let oc = open_out out in
      output_string oc (Buffer.contents buf);
      close_out oc
  | _ ->
      prerr_endline "usage: serve_runner.exe [--smoke] FSDETECT_EXE [OUT]";
      exit 2
