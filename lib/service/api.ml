(* Request execution over the staged cache.

   The output-byte contract with bin/fsdetect.ml is load-bearing: the
   golden CLI transcripts and lint goldens must not change when the
   subcommands become wrappers over this module.  Where the CLI printed
   through Format.printf, the same format strings run through
   Format.asprintf here (fresh formatters share the default margin, so
   the rendering is identical); where it printed errors and exited, the
   same message lands in [err] with the same exit code. *)

type payload = { output : string; err : string; code : int }

(* Tool identity: surfaced by [fsdetect --version] and the serve
   "version" method.  The arch key pins the default machine model the
   reported numbers are computed against. *)
let version = "1.0.0"

let version_string =
  version ^ "+arch."
  ^ String.sub (Req.arch_key Archspec.Arch.paper_machine) 0 12

type value =
  | V_ast of Minic.Ast.program
  | V_checked of Minic.Typecheck.checked
  | V_nest of Loopir.Loop_nest.t
  | V_nests of Loopir.Loop_nest.t list
  | V_payload of payload

type store = value Cache.t

let create_store ?capacity () : store = Cache.create ?capacity ()
let stats = Cache.stats
let stage_stats = Cache.stage_stats
let clear = Cache.clear

let params_key params =
  String.concat ";"
    (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) params)

(* Stage accessors.  The expect_* mismatches are unreachable: every
   stage writes exactly one constructor and stage names partition the
   key space. *)

let expect_ast = function V_ast a -> a | _ -> assert false
let expect_checked = function V_checked c -> c | _ -> assert false
let expect_nest = function V_nest n -> n | _ -> assert false
let expect_nests = function V_nests n -> n | _ -> assert false
let expect_payload = function V_payload p -> p | _ -> assert false

let ast store ~digest ~text =
  expect_ast
    (Cache.find_or_add store ~stage:"parse" ~key:digest (fun () ->
         V_ast (Minic.Parser.parse_program text)))

let checked store ~digest ~text =
  expect_checked
    (Cache.find_or_add store ~stage:"typecheck" ~key:digest (fun () ->
         V_checked (Minic.Typecheck.check_program (ast store ~digest ~text))))

let lower store ~digest ~checked ~func ~params =
  let key = Printf.sprintf "%s:%s:%s" digest func (params_key params) in
  expect_nest
    (Cache.find_or_add store ~stage:"lower" ~key (fun () ->
         V_nest (Loopir.Lower.lower checked ~func ~params)))

let lower_all store ~digest ~checked ~func ~params =
  let key = Printf.sprintf "%s:%s:%s" digest func (params_key params) in
  expect_nests
    (Cache.find_or_add store ~stage:"lower_all" ~key (fun () ->
         V_nests (Loopir.Lower.lower_all checked ~func ~params)))

(* ------------------------------------------------------------------ *)
(* Error translation (shared with the CLI's `wrap`)                    *)
(* ------------------------------------------------------------------ *)

let error_message = function
  | Minic.Parser.Error (m, l) ->
      Some (Printf.sprintf "parse error (line %d): %s\n" l m)
  | Minic.Lexer.Error (m, l) ->
      Some (Printf.sprintf "lex error (line %d): %s\n" l m)
  | Minic.Preproc.Error (m, l) ->
      Some (Printf.sprintf "preprocessor error (line %d): %s\n" l m)
  | Minic.Typecheck.Type_error m -> Some (Printf.sprintf "type error: %s\n" m)
  | Loopir.Lower.Lower_error m ->
      Some (Printf.sprintf "analysis error: %s\n" m)
  | Loopir.Expr_eval.Unbound v ->
      Some
        (Printf.sprintf
           "analysis error: unbound identifier '%s' (bind it with -p \
            %s=VAL)\n"
           v v)
  | Division_by_zero ->
      Some "analysis error: a loop bound divides by zero\n"
  | Loopir.Expr_eval.Not_integer what ->
      Some
        (Printf.sprintf
           "analysis error: a loop bound is not an integer expression (%s)\n"
           what)
  | _ -> None

let fail buf msg = { output = Buffer.contents buf; err = msg; code = 1 }

let guard buf f =
  try f () with
  | e -> (
      match error_message e with Some msg -> fail buf msg | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let kernel_of_source = function
  | Req.Kernel k | Req.Sym_kernel k -> Kernels.Registry.find k
  | Req.Text _ -> None

let func_for store ~digest ~text req = function
  | Some f -> Ok f
  | None -> (
      match kernel_of_source req.Req.source with
      | Some k -> Ok k.Kernels.Kernel.func
      | None -> (
          let c = checked store ~digest ~text in
          match
            Loopir.Lower.find_parallel_functions c.Minic.Typecheck.prog
          with
          | [ one ] -> Ok one
          | [] -> Error "no function with an omp parallel for; use --func"
          | several ->
              Error
                (Printf.sprintf "several parallel functions (%s); use --func"
                   (String.concat ", " several))))

(* One line per reference pair: verdict, deciding backend, witness. *)
let dependence_summary ~line_bytes ~threads ~exact ~exact_budget nest =
  match
    Analysis.Depend.pairs ~line_bytes
      ~params:[ ("num_threads", threads) ]
      ~exact ~exact_budget nest
  with
  | [] -> ""
  | pairs ->
      let b = Buffer.create 256 in
      Buffer.add_string b "dependence:\n";
      List.iter
        (fun (p : Analysis.Depend.pair) ->
          Buffer.add_string b
            (Printf.sprintf "  %s vs %s: %s [%s%s]%s\n"
               p.Analysis.Depend.a.Loopir.Array_ref.repr
               p.Analysis.Depend.b.Loopir.Array_ref.repr
               (Analysis.Depend.verdict_name p.Analysis.Depend.verdict)
               (Analysis.Depend.backend_name
                  p.Analysis.Depend.ev.Analysis.Depend.ev_backend)
               (if p.Analysis.Depend.ev.Analysis.Depend.ev_must then ", must"
                else "")
               (match p.Analysis.Depend.ev.Analysis.Depend.ev_witness with
               | Some w ->
                   " witness " ^ Analysis.Depend.witness_to_string w
               | None -> "")))
        pairs;
      Buffer.contents b

(* JSON views of the analyze pieces (the [--format json] path). *)

let breakdown_json (b : Costmodel.Total_cost.breakdown) =
  let open Analysis.Json in
  Obj
    [
      ("machineCycles", Float b.Costmodel.Total_cost.machine_cycles);
      ("cacheCycles", Float b.Costmodel.Total_cost.cache_cycles);
      ("tlbCycles", Float b.Costmodel.Total_cost.tlb_cycles);
      ("contentionCycles", Float b.Costmodel.Total_cost.contention_cycles);
      ( "parallelOverheadCycles",
        Float b.Costmodel.Total_cost.parallel_overhead_cycles );
      ("loopOverheadCycles", Float b.Costmodel.Total_cost.loop_overhead_cycles);
      ( "falseSharingCycles",
        Float b.Costmodel.Total_cost.false_sharing_cycles );
      ("totalCycles", Float b.Costmodel.Total_cost.total_cycles);
      ("seconds", Float b.Costmodel.Total_cost.seconds);
      ("itersPerThread", Int b.Costmodel.Total_cost.iters_per_thread);
      ("regions", Int b.Costmodel.Total_cost.regions);
    ]

let eq1_json (e : Costmodel.Total_cost.eq1) =
  let open Analysis.Json in
  Obj
    [
      ("loopCycles", Float e.Costmodel.Total_cost.loop_c);
      ("cacheCycles", Float e.Costmodel.Total_cost.cache_c);
      ("machineCycles", Float e.Costmodel.Total_cost.machine_c);
      ("fsCycles", Float e.Costmodel.Total_cost.fs_c);
      ("totalCycles", Float e.Costmodel.Total_cost.total);
    ]

let prediction_json (p : Analysis.Reuse.prediction) =
  let open Analysis.Json in
  Obj
    [
      ("threads", Int p.Analysis.Reuse.threads);
      ("accesses", Float p.Analysis.Reuse.accesses);
      ("l1Hits", Float p.Analysis.Reuse.l1_hits);
      ("l2Hits", Float p.Analysis.Reuse.l2_hits);
      ("l3Hits", Float p.Analysis.Reuse.l3_hits);
      ("c2cTransfers", Float p.Analysis.Reuse.c2c_transfers);
      ("memFetches", Float p.Analysis.Reuse.mem_fetches);
      ("missRate", Float p.Analysis.Reuse.miss_rate);
      ("cacheCyclesPerThread", Float p.Analysis.Reuse.cache_cycles);
      ( "groups",
        List
          (List.map
             (fun (g : Analysis.Reuse.group_profile) ->
               Obj
                 [
                   ("leader", Str g.Analysis.Reuse.leader_repr);
                   ("members", Int g.Analysis.Reuse.members);
                   ("hasWrite", Bool g.Analysis.Reuse.has_write);
                   ("sigma", Int g.Analysis.Reuse.sigma);
                   ( "bins",
                     List
                       (List.map
                          (fun (b : Analysis.Reuse.bin) ->
                            Obj
                              [
                                ("label", Str b.Analysis.Reuse.label);
                                ( "distance",
                                  match b.Analysis.Reuse.distance with
                                  | Some d -> Int d
                                  | None -> Null );
                                ("count", Float b.Analysis.Reuse.count);
                                ( "level",
                                  Str
                                    (Analysis.Reuse.level_name
                                       b.Analysis.Reuse.level) );
                              ])
                          g.Analysis.Reuse.bins) );
                 ])
             p.Analysis.Reuse.groups) );
    ]

let analytic_json (a : Analysis.Reuse.analytic) =
  let open Analysis.Json in
  Obj
    [
      ("prediction", prediction_json a.Analysis.Reuse.prediction);
      ("breakdown", breakdown_json a.Analysis.Reuse.breakdown);
      ("eq1", eq1_json a.Analysis.Reuse.eq1);
      ( "fsCases",
        match a.Analysis.Reuse.fs_cases with Some n -> Int n | None -> Null );
      ("fsNote", Str a.Analysis.Reuse.fs_note);
      ( "fsPercent",
        Float
          (Costmodel.Total_cost.fs_percent ~fs:a.Analysis.Reuse.breakdown) );
    ]

let dependence_json ~line_bytes ~threads ~exact ~exact_budget nest =
  let open Analysis.Json in
  match
    Analysis.Depend.pairs ~line_bytes
      ~params:[ ("num_threads", threads) ]
      ~exact ~exact_budget nest
  with
  | pairs ->
      List
        (List.map
           (fun (p : Analysis.Depend.pair) ->
             Obj
               [
                 ("a", Str p.Analysis.Depend.a.Loopir.Array_ref.repr);
                 ("b", Str p.Analysis.Depend.b.Loopir.Array_ref.repr);
                 ( "verdict",
                   Str
                     (Analysis.Depend.verdict_name p.Analysis.Depend.verdict)
                 );
                 ( "backend",
                   Str
                     (Analysis.Depend.backend_name
                        p.Analysis.Depend.ev.Analysis.Depend.ev_backend) );
                 ("must", Bool p.Analysis.Depend.ev.Analysis.Depend.ev_must);
                 ( "witness",
                   match p.Analysis.Depend.ev.Analysis.Depend.ev_witness with
                   | Some w -> Str (Analysis.Depend.witness_to_string w)
                   | None -> Null );
               ])
           pairs)
  | exception _ -> List []

let run_analyze store ~digest ~text req ~func ~threads ~fs_chunk ~nfs_chunk
    ~predict ~contention ~exact ~exact_budget ~cost_model ~json =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  match func_for store ~digest ~text req func with
  | Error e -> fail buf (e ^ "\n")
  | Ok func ->
      let c = checked store ~digest ~text in
      let fs_chunk, nfs_chunk =
        match kernel_of_source req.Req.source with
        | Some k ->
            ( Option.value ~default:k.Kernels.Kernel.fs_chunk fs_chunk,
              Option.value ~default:k.Kernels.Kernel.nfs_chunk nfs_chunk )
        | None ->
            (Option.value ~default:1 fs_chunk,
             Option.value ~default:16 nfs_chunk)
      in
      let nest =
        lower store ~digest ~checked:c ~func
          ~params:[ ("num_threads", threads) ]
      in
      let line_bytes =
        req.Req.arch.Archspec.Arch.l1.Archspec.Cache_geom.line_bytes
      in
      (* engine-backed Eq. 5 comparison; never run under [`Analytic] *)
      let sim_overhead () =
        let mode =
          match predict with
          | Some runs -> Fsmodel.Overhead_percent.Predicted runs
          | None -> Fsmodel.Overhead_percent.Full
        in
        Fsmodel.Overhead_percent.analyze ~mode ~arch:req.Req.arch ~contention
          ~threads ~fs_chunk ~nfs_chunk ~func c
      in
      let analytic () =
        Analysis.Reuse.overhead_or_analyze ~arch:req.Req.arch ~contention
          ~threads ~fs_chunk ~nfs_chunk ~checked:c nest
      in
      if json then begin
        let open Analysis.Json in
        let deps =
          dependence_json ~line_bytes ~threads ~exact ~exact_budget nest
        in
        let sim_fields =
          match cost_model with
          | `Analytic -> []
          | `Sim | `Both ->
              let a = sim_overhead () in
              [
                ( "overhead",
                  Obj
                    [
                      ("threads", Int a.Fsmodel.Overhead_percent.threads);
                      ("fsChunk", Int a.Fsmodel.Overhead_percent.fs_chunk);
                      ("nfsChunk", Int a.Fsmodel.Overhead_percent.nfs_chunk);
                      ("nFs", Int a.Fsmodel.Overhead_percent.n_fs);
                      ("nNfs", Int a.Fsmodel.Overhead_percent.n_nfs);
                      ("percent", Float a.Fsmodel.Overhead_percent.percent);
                    ] );
                ("breakdown", breakdown_json a.Fsmodel.Overhead_percent.breakdown);
                ( "eq1",
                  eq1_json
                    (Costmodel.Total_cost.eq1_of
                       a.Fsmodel.Overhead_percent.breakdown) );
              ]
        in
        let analytic_fields =
          match cost_model with
          | `Sim -> []
          | `Analytic | `Both ->
              let o, a = analytic () in
              [
                ( "analytic",
                  Obj
                    ((match o with
                     | Some o ->
                         [
                           ("nFs", Int o.Analysis.Reuse.n_fs);
                           ("nNfs", Int o.Analysis.Reuse.n_nfs);
                           ("percent", Float o.Analysis.Reuse.percent);
                         ]
                     | None -> [])
                    @ [ ("cost", analytic_json a) ]) );
              ]
        in
        let doc =
          Obj
            ([
               ("func", Str func);
               ("threads", Int threads);
               ("fsChunk", Int fs_chunk);
               ("nfsChunk", Int nfs_chunk);
               ("costModel", Str (Analysis.Lint.cost_model_name cost_model));
               ("nest", Str (Format.asprintf "%a" Loopir.Loop_nest.pp nest));
               ("dependence", deps);
             ]
            @ sim_fields @ analytic_fields)
        in
        { output = Analysis.Json.to_string doc; err = ""; code = 0 }
      end
      else begin
        Buffer.add_string buf
          (Format.asprintf "%a@." Loopir.Loop_nest.pp nest);
        (try
           Buffer.add_string buf
             (dependence_summary ~line_bytes ~threads ~exact ~exact_budget
                nest)
         with _ -> ());
        (match cost_model with
        | `Sim | `Both ->
            let a = sim_overhead () in
            Buffer.add_string buf
              (Format.asprintf "%a@.%a@." Fsmodel.Overhead_percent.pp a
                 Costmodel.Total_cost.pp a.Fsmodel.Overhead_percent.breakdown)
        | `Analytic -> ());
        (match cost_model with
        | `Sim -> ()
        | `Analytic | `Both -> (
            let o, a = analytic () in
            (match o with
            | Some o ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "threads=%d chunk %d vs %d: N_fs=%d N_nfs=%d -> %.1f%% \
                      of loop time (analytic)\n"
                     o.Analysis.Reuse.threads o.Analysis.Reuse.fs_chunk
                     o.Analysis.Reuse.nfs_chunk o.Analysis.Reuse.n_fs
                     o.Analysis.Reuse.n_nfs o.Analysis.Reuse.percent)
            | None -> ());
            Buffer.add_string buf
              (Format.asprintf "%a@." Analysis.Reuse.pp_analytic a)));
        { output = Buffer.contents buf; err = ""; code = 0 }
      end

let run_lint store ~digest ~text ~uri req ~threads ~chunk ~json ~fixits
    ~params ~fail_on ~exact ~exact_budget ~cost_model ~sched ~seeds =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  let c = checked store ~digest ~text in
  let opts =
    {
      Analysis.Lint.arch = req.Req.arch;
      threads;
      chunk;
      fixits;
      params;
      exact;
      exact_budget;
      cost_model;
      sched;
      seeds;
    }
  in
  let report = Analysis.Lint.run ~opts ~uri c in
  let output =
    if json then Analysis.Json.to_string (Analysis.Diag.to_json report)
    else Analysis.Diag.to_text report
  in
  let gate =
    match fail_on with
    | Req.Never -> false
    | Req.Race -> Analysis.Diag.error_count report > 0
    | Req.Fs ->
        Analysis.Diag.error_count report > 0
        || List.exists
             (fun (f : Analysis.Diag.finding) ->
               f.Analysis.Diag.rule = "fs/line-conflict"
               && f.Analysis.Diag.severity <> Analysis.Diag.Info)
             report.Analysis.Diag.findings
  in
  { output; err = ""; code = (if gate then 1 else 0) }

let run_explain store ~digest ~text ~uri req ~func ~threads ~chunk ~params
    ~engine ~format ~top ~trace_cap ~sched ~seeds =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  match func_for store ~digest ~text req func with
  | Error e -> fail buf (e ^ "\n")
  | Ok func ->
      let c = checked store ~digest ~text in
      let params = ("num_threads", threads) :: params in
      let nest = lower store ~digest ~checked:c ~func ~params in
      let cfg =
        {
          (Fsmodel.Model.default_config ~arch:req.Req.arch ~threads ()) with
          chunk;
          params;
        }
      in
      let sched =
        Option.map (fun k -> (k, Array.init seeds (fun i -> i))) sched
      in
      let a =
        Explain.analyze ~engine ?trace_cap ?sched ~uri ~func cfg ~nest
          ~checked:c
      in
      let output =
        match format with
        | `Text -> Explain.to_text ~source:text ~top a
        | `Heatmap -> Explain.heatmap a
        | `Trace -> Analysis.Json.to_string (Explain.trace_json a)
      in
      if not (Explain.conservation_ok a) then
        {
          output;
          err =
            "internal error: attribution does not sum back to the engine \
             count\n";
          code = 3;
        }
      else { output; err = ""; code = 0 }

let run_advise store ~digest ~text req ~func ~threads ~jobs =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  match func_for store ~digest ~text req func with
  | Error e -> fail buf (e ^ "\n")
  | Ok func ->
      let c = checked store ~digest ~text in
      let a =
        Fsmodel.Advisor.advise ~arch:req.Req.arch ?domains:jobs ~threads
          ~func c
      in
      {
        output = Format.asprintf "%a@." Fsmodel.Advisor.pp a;
        err = "";
        code = 0;
      }

let run_eliminate store ~digest ~text req ~func ~threads =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  match func_for store ~digest ~text req func with
  | Error e -> fail buf (e ^ "\n")
  | Ok func -> (
      let c = checked store ~digest ~text in
      match Fsmodel.Eliminate.eliminate ~arch:req.Req.arch ~threads ~func c with
      | after, plan ->
          {
            output =
              Format.asprintf "/* fsdetect: %a*/@.%s"
                Fsmodel.Eliminate.pp_plan plan
                (Minic.Pretty.program_to_string after.Minic.Typecheck.prog);
            err =
              (* an empty plan is a result, not silence: say why the
                 program came back unchanged *)
              (if plan.Fsmodel.Eliminate.rewrites = [] then
                 Printf.sprintf
                   "fsdetect: no false sharing attributed in %s; nothing to \
                    fix\n"
                   func
               else "");
            code = 0;
          }
      | exception Fsmodel.Eliminate.Unsupported m ->
          fail buf (Printf.sprintf "cannot eliminate: %s\n" m))

let run_fix store ~digest ~text req ~func ~threads ~jobs ~json =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  match func_for store ~digest ~text req func with
  | Error e -> fail buf (e ^ "\n")
  | Ok func -> (
      let c = checked store ~digest ~text in
      let advice =
        Fsmodel.Advisor.advise ~arch:req.Req.arch ?domains:jobs ~threads
          ~func c
      in
      match
        Analysis.Fixer.verify ~arch:req.Req.arch ~advice ~threads ~func c
      with
      | Analysis.Fixer.Nothing_to_fix reason ->
          { output = ""; err = Printf.sprintf "fsdetect: %s\n" reason; code = 0 }
      | Analysis.Fixer.Fix v ->
          let output =
            if json then Analysis.Json.to_string (Analysis.Fixer.to_json v)
            else Analysis.Fixer.to_text v ^ "\n" ^ v.Analysis.Fixer.source
          in
          (* an unverified fix is still printed (the report says why), but
             the exit code gates on the verdict so CI can rely on it *)
          {
            output;
            err = "";
            code = (if v.Analysis.Fixer.verified then 0 else 1);
          })

let run_dump store ~digest ~text ~threads =
  let buf = Buffer.create 1024 in
  guard buf @@ fun () ->
  let c = checked store ~digest ~text in
  Buffer.add_string buf
    (Format.asprintf "%s@."
       (Minic.Pretty.program_to_string c.Minic.Typecheck.prog));
  List.iter
    (fun f ->
      List.iter
        (fun nest ->
          Buffer.add_string buf
            (Format.asprintf "%a@." Loopir.Loop_nest.pp nest))
        (lower_all store ~digest ~checked:c ~func:f
           ~params:[ ("num_threads", threads) ]))
    (Loopir.Lower.find_parallel_functions c.Minic.Typecheck.prog);
  { output = Buffer.contents buf; err = ""; code = 0 }

let compute store (req : Req.t) ~uri ~text =
  let digest = Digest.to_hex (Digest.string text) in
  match req.Req.kind with
  | Req.Analyze
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
        json;
      } ->
      run_analyze store ~digest ~text req ~func ~threads ~fs_chunk
        ~nfs_chunk ~predict ~contention ~exact ~exact_budget ~cost_model
        ~json
  | Req.Lint
      {
        threads;
        chunk;
        json;
        fixits;
        params;
        fail_on;
        exact;
        exact_budget;
        cost_model;
        sched;
        seeds;
      } ->
      run_lint store ~digest ~text ~uri req ~threads ~chunk ~json ~fixits
        ~params ~fail_on ~exact ~exact_budget ~cost_model ~sched ~seeds
  | Req.Explain
      {
        func;
        threads;
        chunk;
        params;
        engine;
        format;
        top;
        trace_cap;
        sched;
        seeds;
      } ->
      run_explain store ~digest ~text ~uri req ~func ~threads ~chunk ~params
        ~engine ~format ~top ~trace_cap ~sched ~seeds
  | Req.Advise { func; threads; jobs } ->
      run_advise store ~digest ~text req ~func ~threads ~jobs
  | Req.Eliminate { func; threads } ->
      run_eliminate store ~digest ~text req ~func ~threads
  | Req.Fix { func; threads; jobs; json } ->
      run_fix store ~digest ~text req ~func ~threads ~jobs ~json
  | Req.Dump { threads } -> run_dump store ~digest ~text ~threads

let exec store (req : Req.t) =
  match Req.cache_key req with
  | Error msg -> { output = ""; err = msg ^ "\n"; code = 1 }
  | Ok key ->
      expect_payload
        (Cache.find_or_add store ~stage:"resp" ~key (fun () ->
             let uri, text =
               match Req.source_text req.Req.source with
               | Ok ut -> ut
               | Error _ -> assert false (* cache_key already resolved it *)
             in
             V_payload (compute store req ~uri ~text)))

let stats_json store =
  let s = stats store in
  Analysis.Json.Obj
    [
      ("hits", Analysis.Json.Int s.Cache.hits);
      ("misses", Analysis.Json.Int s.Cache.misses);
      ("evictions", Analysis.Json.Int s.Cache.evictions);
      ("entries", Analysis.Json.Int s.Cache.entries);
      ("capacity", Analysis.Json.Int s.Cache.capacity);
    ]
