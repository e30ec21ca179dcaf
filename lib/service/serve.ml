module J = Analysis.Json
module Pool = Fsmodel.Par_sweep.Pool

let analysis_methods =
  [ "analyze"; "lint"; "explain"; "advise"; "eliminate"; "fix"; "dump" ]

let payload_json (p : Api.payload) =
  J.Obj
    [
      ("output", J.Str p.output); ("err", J.Str p.err); ("code", J.Int p.code);
    ]

(* Every response — results, protocol errors, batch item streams — goes
   through the pool, so with one worker the output order is exactly the
   input order (the protocol goldens diff against that), and with many
   workers the single writer lock keeps lines whole. *)
let run ?jobs ?capacity ?(ic = stdin) ?(oc = stdout) () =
  let jobs =
    match jobs with
    | Some j ->
        if j < 1 then invalid_arg "Serve.run: jobs < 1";
        j
    | None -> Fsmodel.Par_sweep.recommended_domains ()
  in
  let store = Api.create_store ?capacity () in
  let out_lock = Mutex.create () in
  let send json =
    let line = Jsonp.to_line json in
    Mutex.lock out_lock;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_lock
  in
  let respond id fields = send (J.Obj (("id", id) :: fields)) in
  let error_obj code msg =
    J.Obj [ ("code", J.Int code); ("message", J.Str msg) ]
  in
  let error id code msg = respond id [ ("error", error_obj code msg) ] in
  let decode_call r =
    match Jsonp.member "method" r with
    | Some (J.Str m) when List.mem m analysis_methods ->
        let p = Option.value ~default:(J.Obj []) (Jsonp.member "params" r) in
        Req.of_json ~meth:m p
    | Some (J.Str m) -> Error (Printf.sprintf "unknown method %S" m)
    | Some _ -> Error "\"method\" must be a string"
    | None -> Error "missing \"method\""
  in
  (* An analysis that raises still answers its id, with an internal
     error, so no client waits on it forever. *)
  let exec = function
    | Error e -> Error (-32602, e)
    | Ok req -> (
        match Api.exec store req with
        | p -> Ok p
        | exception e ->
            Error (-32603, "internal error: " ^ Printexc.to_string e))
  in
  let batch id params () =
    match Jsonp.member "requests" params with
    | Some (J.List reqs) ->
        let on_result i = function
          | Ok p -> respond id [ ("item", J.Int i); ("result", payload_json p) ]
          | Error (code, e) ->
              respond id [ ("item", J.Int i); ("error", error_obj code e) ]
        in
        (* One shard per domain: requests fan out over [jobs] domains and
           each result line leaves as soon as its nest is analyzed. *)
        ignore
          (Fsmodel.Par_sweep.map_stream ~domains:jobs ~on_result
             (fun r -> exec (decode_call r))
             reqs);
        respond id [ ("done", J.Bool true); ("items", J.Int (List.length reqs)) ]
    | Some _ -> error id (-32602) "\"requests\" must be a list"
    | None -> error id (-32602) "missing \"requests\""
  in
  let kernels_json () =
    J.Obj
      [
        ( "kernels",
          J.List
            (List.map
               (fun k ->
                 J.Obj
                   [
                     ("name", J.Str k.Kernels.Kernel.name);
                     ("description", J.Str k.Kernels.Kernel.description);
                     ("func", J.Str k.Kernels.Kernel.func);
                     ("fs_chunk", J.Int k.Kernels.Kernel.fs_chunk);
                     ("nfs_chunk", J.Int k.Kernels.Kernel.nfs_chunk);
                     ("parametric", J.Bool (k.Kernels.Kernel.parametric <> None));
                   ])
               (Kernels.Registry.all ())) );
      ]
  in
  let pool = Pool.create ~domains:jobs () in
  let continue_ = ref true in
  while !continue_ do
    match input_line ic with
    | exception End_of_file -> continue_ := false
    | line when String.trim line = "" -> ()
    | line -> (
        match Jsonp.parse line with
        | Error msg ->
            Pool.submit pool (fun () ->
                error J.Null (-32700) ("parse error: " ^ msg))
        | Ok json -> (
            let id =
              Option.value ~default:J.Null (Jsonp.member "id" json)
            in
            match Jsonp.member "method" json with
            | None ->
                Pool.submit pool (fun () ->
                    error id (-32600) "missing \"method\"")
            | Some (J.Str meth) -> (
                let params =
                  Option.value ~default:(J.Obj []) (Jsonp.member "params" json)
                in
                match meth with
                | "ping" ->
                    Pool.submit pool (fun () ->
                        respond id
                          [ ("result", J.Obj [ ("pong", J.Bool true) ]) ])
                | "version" ->
                    Pool.submit pool (fun () ->
                        respond id
                          [
                            ( "result",
                              J.Obj
                                [
                                  ("name", J.Str "fsdetect");
                                  ("version", J.Str Api.version);
                                  ( "arch",
                                    J.Str
                                      (Req.arch_key
                                         Archspec.Arch.paper_machine) );
                                  ("protocol", J.Int 1);
                                ] );
                          ])
                | "kernels" ->
                    Pool.submit pool (fun () ->
                        respond id [ ("result", kernels_json ()) ])
                | "cache_stats" ->
                    Pool.submit pool (fun () ->
                        respond id [ ("result", Api.stats_json store) ])
                | "shutdown" ->
                    Pool.submit pool (fun () ->
                        respond id
                          [ ("result", J.Obj [ ("ok", J.Bool true) ]) ]);
                    continue_ := false
                | "batch" -> Pool.submit pool (batch id params)
                | m when List.mem m analysis_methods ->
                    Pool.submit pool (fun () ->
                        match exec (Req.of_json ~meth:m params) with
                        | Ok p -> respond id [ ("result", payload_json p) ]
                        | Error (code, e) -> error id code e)
                | m ->
                    Pool.submit pool (fun () ->
                        error id (-32601) (Printf.sprintf "unknown method %S" m))
                )
            | Some _ ->
                Pool.submit pool (fun () ->
                    error id (-32600) "\"method\" must be a string")))
  done;
  Pool.wait pool;
  Pool.shutdown pool
