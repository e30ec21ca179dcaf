(* fsdetect — compile-time false-sharing analysis for OpenMP loop nests.

   Subcommands:
     analyze    run the FS cost model on a mini-C file or a bundled kernel
     lint       static race / false-sharing diagnostics with fix-its
     explain    attribute each FS case to its references/line/thread pair
     simulate   execute on the simulated multicore and report measured times
     advise     chunk-size / padding advice to eliminate false sharing
     eliminate  rewrite the program (padding / spreading) and print it
     fix        materialize the advised fix and verify it by re-analysis
     compare    model vs predictor vs runtime trace detector, per chunk
     fuzz       differential fuzzing of the four analysis paths
     serve      long-running JSON-RPC analysis service with a memo cache
     kernels    list bundled kernels
     dump       parse a file and dump the program and its loop nests

   Every analysis subcommand is a thin wrapper over [Service.Api]: the
   CLI builds a typed request, executes it, prints the payload's stdout/
   stderr bytes and exits with its code.  [fsdetect serve] runs the same
   requests against a long-lived store, so a warm serve response is
   byte-identical to the one-shot CLI run. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source_of ~file ~kernel =
  match (file, kernel) with
  | Some f, None -> Ok (Service.Req.Text { name = f; content = read_file f })
  | None, Some k -> Ok (Service.Req.Kernel k)
  | Some _, Some _ -> Error "give either FILE or --kernel, not both"
  | None, None -> Error "give a FILE or --kernel NAME"

let emit_payload (p : Service.Api.payload) =
  print_string p.Service.Api.output;
  prerr_string p.Service.Api.err;
  if p.Service.Api.code <> 0 then exit p.Service.Api.code

let exec req = emit_payload (Service.Api.exec (Service.Api.create_store ()) req)

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Mini-C source file to analyze.")

let kernel_arg =
  Arg.(value & opt (some string) None
       & info [ "kernel"; "k" ] ~docv:"NAME" ~doc:"Use a bundled kernel.")

let func_arg =
  Arg.(value & opt (some string) None
       & info [ "func"; "f" ] ~docv:"FUNC" ~doc:"Kernel function name.")

(* Team and chunk sizes below 1 are rejected where they enter, not deep
   inside the schedule. *)
let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | Some n -> Error (`Msg (Printf.sprintf "must be at least 1 (got %d)" n))
        | None -> Error (`Msg (Printf.sprintf "invalid integer '%s'" s))),
      Format.pp_print_int )

let threads_arg =
  Arg.(value & opt positive 8
       & info [ "threads"; "t" ] ~docv:"N" ~doc:"OpenMP team size.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j"; "domains" ] ~docv:"N"
           ~doc:"Worker domains (default: recommended for this machine). \
                 Results are identical for any job count.")

let exact_arg =
  Arg.(value
       & opt
           (enum [ ("auto", `Auto); ("on", `On); ("off", `Off) ])
           `Auto
       & info [ "exact" ] ~docv:"MODE"
           ~doc:
             "Exact (Omega-test) dependence tier: $(b,auto) (default) runs \
              it and falls back to Banerjee silently on budget exhaustion, \
              $(b,on) additionally reports every fallback as a finding, \
              $(b,off) disables it.")

let exact_budget_arg =
  Arg.(value & opt int Analysis.Depend.default_exact_budget
       & info [ "exact-budget" ] ~docv:"N"
           ~doc:"Solver step allowance per reference pair for the exact \
                 dependence tier.")

let schedule_arg =
  Arg.(value & opt (some string) None
       & info [ "schedule" ] ~docv:"KIND[,C]"
           ~doc:
             "Schedule to analyze under: $(b,static)[,C] (the default \
              pragma path; C is a chunk override), $(b,dynamic)[,C], \
              $(b,guided)[,C] or $(b,ws)[,C] (randomized work stealing).  \
              Nondeterministic kinds are replayed once per seed and the \
              verdict becomes a distribution over $(b,--seeds) seeds.")

let seeds_arg =
  Arg.(value & opt int 8
       & info [ "seeds" ] ~docv:"K"
           ~doc:"Seed-set size for distribution-valued verdicts under a \
                 nondeterministic $(b,--schedule).")

(* --schedule/--seeds are validated by hand so a bad value exits 2 with
   an actionable message instead of cmdliner's generic conversion error.
   Returns (replayed kind, chunk override). *)
let sched_of_flags ~schedule ~seeds ~chunk =
  if seeds < 1 then begin
    Printf.eprintf "--seeds must be at least 1 (got %d)\n" seeds;
    exit 2
  end;
  match schedule with
  | None -> (None, chunk)
  | Some s -> (
      match Ompsched.Dispatch.of_string s with
      | Ok (`Kind k) -> (Some k, chunk)
      | Ok (`Static None) -> (None, chunk)
      | Ok (`Static (Some c)) ->
          if chunk <> None then begin
            Printf.eprintf
              "give --chunk or --schedule static,C, not both\n";
            exit 2
          end;
          (None, Some c)
      | Error m ->
          Printf.eprintf "--schedule: %s\n" m;
          exit 2)

let wrap f = (try f () with
  | Sys_error m -> Printf.eprintf "%s\n" m; exit 1
  | e -> (
      match Service.Api.error_message e with
      | Some msg -> prerr_string msg; exit 1
      | None -> raise e))

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let cost_model_arg =
  let open Cmdliner in
  Arg.(value
       & opt
           (enum [ ("sim", `Sim); ("analytic", `Analytic); ("both", `Both) ])
           `Sim
       & info [ "cost-model" ] ~docv:"MODEL"
           ~doc:
             "How to quantify and cost findings: $(b,sim) (default) uses \
              the lockstep engine where no closed form applies, \
              $(b,analytic) uses only the static reuse-distance model \
              (zero engine or simulator evaluations), $(b,both) reports \
              engine counts with the analytic Eq. 1 context attached.")

let analyze file kernel func threads fs_chunk nfs_chunk predict contention
    exact exact_budget cost_model format =
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec
        (Service.Req.v source
           (Service.Req.Analyze
              {
                func;
                threads;
                fs_chunk;
                nfs_chunk;
                predict;
                contention;
                exact;
                exact_budget;
                cost_model;
                json = (format = `Json);
              }))

let analyze_cmd =
  let fs_chunk =
    Arg.(value & opt (some positive) None
         & info [ "fs-chunk" ] ~docv:"C" ~doc:"FS-prone chunk size.")
  in
  let nfs_chunk =
    Arg.(value & opt (some positive) None
         & info [ "nfs-chunk" ] ~docv:"C" ~doc:"Optimized chunk size.")
  in
  let predict =
    Arg.(value & opt (some int) None
         & info [ "predict" ] ~docv:"RUNS"
             ~doc:"Use the linear-regression predictor over RUNS chunk runs.")
  in
  let contention =
    Arg.(value & flag
         & info [ "contention" ]
             ~doc:"Include the shared-cache/bandwidth contention extension \
                   in the Eq. 1 total.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "Output format: $(b,text) (default) or $(b,json) (one \
                structured document with the nest, dependence verdicts \
                and cost breakdown).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the compile-time FS cost model")
    Term.(const analyze $ file_arg $ kernel_arg $ func_arg $ threads_arg
          $ fs_chunk $ nfs_chunk $ predict $ contention $ exact_arg
          $ exact_budget_arg $ cost_model_arg $ format)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint file kernel threads chunk json no_fixits params fail_on exact
    exact_budget cost_model schedule seeds =
  let sched, chunk = sched_of_flags ~schedule ~seeds ~chunk in
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec
        (Service.Req.v source
           (Service.Req.Lint
              {
                threads;
                chunk;
                json;
                fixits = not no_fixits;
                params;
                fail_on;
                exact;
                exact_budget;
                cost_model;
                sched;
                seeds;
              }))

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit a SARIF-shaped JSON report.")
  in
  let chunk =
    Arg.(value & opt (some positive) None
         & info [ "chunk"; "c" ] ~docv:"C"
             ~doc:"Schedule chunk-size override for the cost model.")
  in
  let no_fixits =
    Arg.(value & flag
         & info [ "no-fixits" ] ~doc:"Skip advisor-based fix-it search.")
  in
  let params =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "param"; "p" ] ~docv:"NAME=VAL"
             ~doc:
               "Bind an identifier appearing in loop bounds (repeatable). \
                Unbound identifiers are analyzed symbolically instead.")
  in
  let fail_on =
    Arg.(value
         & opt
             (enum
                [ ("race", Service.Req.Race); ("fs", Service.Req.Fs);
                  ("never", Service.Req.Never) ])
             Service.Req.Race
         & info [ "fail-on" ] ~docv:"WHEN"
             ~doc:
               "When to exit non-zero: $(b,race) (default) on any \
                error-severity finding, $(b,fs) also on any false-sharing \
                warning, $(b,never) always exit 0.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static data-race and false-sharing diagnostics over every omp \
          parallel for nest (exit 1 per $(b,--fail-on), default: on any \
          error-severity finding)")
    Term.(const lint $ file_arg $ kernel_arg $ threads_arg $ chunk $ json
          $ no_fixits $ params $ fail_on $ exact_arg $ exact_budget_arg
          $ cost_model_arg $ schedule_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain file kernel func threads chunk params engine format top trace_cap
    out schedule seeds =
  let sched, chunk = sched_of_flags ~schedule ~seeds ~chunk in
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      let p =
        Service.Api.exec
          (Service.Api.create_store ())
          (Service.Req.v source
             (Service.Req.Explain
                { func; threads; chunk; params; engine; format; top;
                  trace_cap; sched; seeds }))
      in
      (* The report goes to --out only when one was produced (code 0, or
         3: report emitted but conservation failed) — analysis errors
         must not create the file, exactly as the one-shot path. *)
      (match out with
      | None -> print_string p.Service.Api.output
      | Some path when p.Service.Api.code = 0 || p.Service.Api.code = 3 ->
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc p.Service.Api.output)
      | Some _ -> ());
      prerr_string p.Service.Api.err;
      if p.Service.Api.code <> 0 then exit p.Service.Api.code

let explain_cmd =
  let chunk =
    Arg.(value & opt (some positive) None
         & info [ "chunk"; "c" ] ~docv:"C"
             ~doc:"Schedule chunk-size override for the cost model.")
  in
  let params =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "param"; "p" ] ~docv:"NAME=VAL"
             ~doc:"Bind an identifier appearing in loop bounds (repeatable).")
  in
  let engine =
    Arg.(value
         & opt (enum [ ("fast", `Fast); ("reference", `Reference) ]) `Fast
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Engine to attribute: $(b,fast) (default) or \
                   $(b,reference).  Both record identical provenance; the \
                   option exists for cross-checking.")
  in
  let format =
    Arg.(value
         & opt
             (enum [ ("text", `Text); ("heatmap", `Heatmap); ("trace", `Trace) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Renderer: $(b,text) (annotated source + top reference \
                   pairs, default), $(b,heatmap) (ASCII cache-line x thread \
                   map), or $(b,trace) (Chrome trace_event JSON for \
                   Perfetto / chrome://tracing).")
  in
  let top =
    Arg.(value & opt int 3
         & info [ "top" ] ~docv:"N"
             ~doc:"Reference pairs to show in the text report.")
  in
  let trace_cap =
    Arg.(value & opt (some int) None
         & info [ "trace-cap" ] ~docv:"N"
             ~doc:"Per-event ring capacity for the trace export (default \
                   65536; aggregates always cover every case).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the report to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every false-sharing case the cost model counts to its \
          (writer reference, victim reference, cache line, thread pair) \
          provenance, and render the aggregation as an annotated-source \
          report, a heatmap, or a loadable trace")
    Term.(const explain $ file_arg $ kernel_arg $ func_arg $ threads_arg
          $ chunk $ params $ engine $ format $ top $ trace_cap $ out
          $ schedule_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let kernel_or_die k =
  match Kernels.Registry.find k with
  | Some kern -> kern
  | None ->
      Printf.eprintf "unknown kernel %S (try: %s)\n" k
        (String.concat ", " (Kernels.Registry.names ()));
      exit 1

(* A line's holders are one int in the simulator's directory, which caps
   the simulated team; say so instead of failing inside the model. *)
let simulated_threads_or_die threads =
  if threads > Cachesim.Coherence.max_cores then begin
    Printf.eprintf
      "--threads %d: the simulated multicore has at most %d cores\n" threads
      Cachesim.Coherence.max_cores;
    exit 2
  end

let simulate kernel threads chunk window schedule seed =
  simulated_threads_or_die threads;
  let sched, chunk =
    match sched_of_flags ~schedule ~seeds:1 ~chunk with
    | Some k, chunk -> (Some (k, seed), chunk)
    | None, chunk -> (None, chunk)
  in
  wrap @@ fun () ->
  let k = kernel_or_die kernel in
  let m =
    Execsim.Run.measure ?chunk ?sched ~interleave_window:window ~threads k
  in
  Format.printf "%a@." Execsim.Run.pp_measurement m

let simulate_cmd =
  let kernel_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KERNEL" ~doc:"Bundled kernel name.")
  in
  let chunk =
    Arg.(value & opt (some positive) None
         & info [ "chunk"; "c" ] ~docv:"C" ~doc:"Chunk-size override.")
  in
  let window =
    Arg.(value & opt positive 4
         & info [ "window" ] ~docv:"W" ~doc:"Thread interleave window.")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Replay seed for a nondeterministic $(b,--schedule).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute a kernel on the simulated coherent multicore")
    Term.(const simulate $ kernel_pos $ threads_arg $ chunk $ window
          $ schedule_arg $ seed)

(* ------------------------------------------------------------------ *)
(* advise                                                              *)
(* ------------------------------------------------------------------ *)

let advise file kernel func threads jobs =
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec
        (Service.Req.v source (Service.Req.Advise { func; threads; jobs }))

let advise_cmd =
  Cmd.v
    (Cmd.info "advise" ~doc:"Chunk-size and padding advice to eliminate FS")
    Term.(const advise $ file_arg $ kernel_arg $ func_arg $ threads_arg
          $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* eliminate                                                           *)
(* ------------------------------------------------------------------ *)

let eliminate file kernel func threads =
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec (Service.Req.v source (Service.Req.Eliminate { func; threads }))

let eliminate_cmd =
  Cmd.v
    (Cmd.info "eliminate"
       ~doc:
         "Rewrite the program to remove false sharing (struct padding / \
          element spreading) and print the result")
    Term.(const eliminate $ file_arg $ kernel_arg $ func_arg $ threads_arg)

(* ------------------------------------------------------------------ *)
(* fix                                                                 *)
(* ------------------------------------------------------------------ *)

let fix file kernel func threads jobs json =
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec
        (Service.Req.v source (Service.Req.Fix { func; threads; jobs; json }))

let fix_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the verdict as one JSON object (including the \
                   transformed source under $(b,transformedSource)).")
  in
  Cmd.v
    (Cmd.info "fix"
       ~doc:
         "Materialize the advised fix (padding / spreading / privatization \
          / chunk retuning) and verify it by re-analysis: re-run both \
          model engines, the dependence analysis and the analytic cost \
          model on the transformed program, and report the attributed-FS \
          removal, cost ratio and verdict followed by the transformed \
          source (exit 1 when the fix does not verify; a nest with no \
          attributed false sharing reports nothing to fix and exits 0)")
    Term.(const fix $ file_arg $ kernel_arg $ func_arg $ threads_arg
          $ jobs_arg $ json)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_detectors kernel threads chunks =
  simulated_threads_or_die threads;
  wrap @@ fun () ->
  let k = kernel_or_die kernel in
  let chunks = match chunks with [] -> [ 1; 2; 4; 8; 16; 32 ] | l -> l in
  let c = Baseline.Compare.run ~chunks ~threads k in
  Format.printf "%a@." Baseline.Compare.pp c

let compare_cmd =
  let kernel_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KERNEL" ~doc:"Bundled kernel name.")
  in
  let chunks =
    Arg.(value & opt (list positive) []
         & info [ "chunks" ] ~docv:"C1,C2,..."
             ~doc:"Chunk sizes to sweep (default 1,2,4,8,16,32).")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Sweep chunk sizes with the compile-time model, the predictor and \
          a runtime trace-based detector, and report their agreement")
    Term.(const compare_detectors $ kernel_pos $ threads_arg $ chunks)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz seed count time_budget jobs out corpus promote inject max_failures
    quiet =
  wrap @@ fun () ->
  let mutate =
    match inject with
    | None -> None
    | Some name -> (
        match Fuzz.Oracle.mutation_of_string name with
        | Some _ as m -> m
        | None ->
            Printf.eprintf "unknown fault %S (one of: %s)\n" name
              (String.concat ", " Fuzz.Oracle.mutation_names);
            exit 2)
  in
  let cfg =
    {
      Fuzz.Driver.default with
      seed;
      count;
      time_budget;
      jobs;
      mutate;
      out_dir = Some out;
      corpus;
      promote_dir = promote;
      max_failures;
    }
  in
  let progress = if quiet then fun _ -> () else Printf.eprintf "%s\n%!" in
  let s = Fuzz.Driver.run ~progress cfg in
  print_string (Fuzz.Driver.summary_to_string s);
  if s.Fuzz.Driver.failures <> [] then exit 1

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0
         & info [ "seed"; "s" ] ~docv:"N" ~doc:"PRNG seed for the run.")
  in
  let count =
    Arg.(value & opt int 1000
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of cases to generate.")
  in
  let time_budget =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECONDS"
             ~doc:"Stop generating new cases after this many seconds.")
  in
  let out =
    Arg.(value & opt string "fuzz-failures"
         & info [ "out"; "o" ] ~docv:"DIR"
             ~doc:"Directory for shrunk counterexamples.")
  in
  let corpus =
    Arg.(value & opt (some dir) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Replay every .c file of DIR through the oracle matrix \
                   before generating random cases.")
  in
  let promote =
    Arg.(value & opt (some string) None
         & info [ "promote" ] ~docv:"DIR"
             ~doc:"Corpus mining: write any generated nest whose \
                   materialized fix underdelivers (fails the \
                   $(b,fix/verified) gate without being an oracle \
                   disagreement) to DIR under a content-addressed name, \
                   so the regression corpus grows from fuzzing runs.")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Harness self-test: inject a known fault (one of \
                   $(b,fast), $(b,closed), $(b,depend), $(b,sym), \
                   $(b,fix), ...) and expect the matrix to catch it.")
  in
  let max_failures =
    Arg.(value & opt int 1
         & info [ "max-failures" ] ~docv:"N"
             ~doc:"Keep fuzzing until N distinct failures were shrunk.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress output.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random OpenMP loop nests and \
          cross-check the reference engine, the fast engine, the \
          closed-form and symbolic estimators, and the dependence \
          analyzer against each other and against brute force (exit 1 \
          on any disagreement, with a shrunk counterexample written to \
          $(b,--out))")
    Term.(const fuzz $ seed $ count $ time_budget $ jobs_arg $ out $ corpus
          $ promote $ inject $ max_failures $ quiet)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve jobs capacity = Service.Serve.run ?jobs ?capacity ()

let serve_cmd =
  let capacity =
    Arg.(value & opt (some int) None
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Memo-cache entry bound across all stages (default 1024); \
                   least-recently-used entries are evicted beyond it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Analysis as a service: read newline-delimited JSON-RPC requests \
          from stdin, answer one response per line on stdout.  Analyses \
          share a content-addressed memo cache (parse / typecheck / loop IR \
          / response stages), so repeated or incrementally-edited requests \
          are answered from cache; $(b,batch) requests shard across \
          $(b,--jobs) worker domains and stream per-item results.  Methods: \
          analyze, lint, explain, advise, eliminate, fix, dump, batch, \
          ping, version, kernels, cache_stats, shutdown.")
    Term.(const serve $ jobs_arg $ capacity)

(* ------------------------------------------------------------------ *)
(* kernels, dump                                                       *)
(* ------------------------------------------------------------------ *)

let kernels () =
  let line k =
    Printf.printf "%-18s %s (func %s, chunks %d vs %d)\n"
      k.Kernels.Kernel.name k.Kernels.Kernel.description
      k.Kernels.Kernel.func k.Kernels.Kernel.fs_chunk
      k.Kernels.Kernel.nfs_chunk
  in
  List.iter line (Kernels.Registry.all ());
  Printf.printf "micro-patterns:\n";
  List.iter line (Kernels.Registry.micros ())

let kernels_cmd =
  Cmd.v (Cmd.info "kernels" ~doc:"List bundled kernels")
    Term.(const kernels $ const ())

let dump file kernel threads =
  wrap @@ fun () ->
  match source_of ~file ~kernel with
  | Error e -> Printf.eprintf "%s\n" e; exit 1
  | Ok source ->
      exec (Service.Req.v source (Service.Req.Dump { threads }))

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"Parse and dump a program and its loop nests")
    Term.(const dump $ file_arg $ kernel_arg $ threads_arg)

let () =
  let info =
    Cmd.info "fsdetect" ~version:Service.Api.version_string
      ~doc:"Compile-time detection of false sharing via loop cost modeling"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; lint_cmd; explain_cmd; simulate_cmd; advise_cmd;
            eliminate_cmd; fix_cmd; compare_cmd; fuzz_cmd; serve_cmd;
            kernels_cmd; dump_cmd ]))
