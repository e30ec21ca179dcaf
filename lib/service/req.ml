type source =
  | Text of { name : string; content : string }
  | Kernel of string
  | Sym_kernel of string

type fail_on = Race | Fs | Never

type exact_mode = Analysis.Depend.exact_mode

let exact_name = function `Auto -> "auto" | `On -> "on" | `Off -> "off"

type cost_model = Analysis.Lint.cost_model

type kind =
  | Analyze of {
      func : string option;
      threads : int;
      fs_chunk : int option;
      nfs_chunk : int option;
      predict : int option;
      contention : bool;
      exact : exact_mode;
      exact_budget : int;
      cost_model : cost_model;
      json : bool;
    }
  | Lint of {
      threads : int;
      chunk : int option;
      json : bool;
      fixits : bool;
      params : (string * int) list;
      fail_on : fail_on;
      exact : exact_mode;
      exact_budget : int;
      cost_model : cost_model;
      sched : Ompsched.Dispatch.kind option;
      seeds : int;
    }
  | Explain of {
      func : string option;
      threads : int;
      chunk : int option;
      params : (string * int) list;
      engine : Fsmodel.Model.engine;
      format : [ `Text | `Heatmap | `Trace ];
      top : int;
      trace_cap : int option;
      sched : Ompsched.Dispatch.kind option;
      seeds : int;
    }
  | Advise of { func : string option; threads : int; jobs : int option }
  | Eliminate of { func : string option; threads : int }
  | Fix of {
      func : string option;
      threads : int;
      jobs : int option;
      json : bool;
    }
  | Dump of { threads : int }

type t = { source : source; arch : Archspec.Arch.t; kind : kind }

let v ?(arch = Archspec.Arch.paper_machine) source kind =
  { source; arch; kind }

let lint_defaults source =
  v source
    (Lint
       {
         threads = 8;
         chunk = None;
         json = false;
         fixits = true;
         params = [];
         fail_on = Race;
         exact = `Auto;
         exact_budget = Analysis.Depend.default_exact_budget;
         cost_model = `Sim;
         sched = None;
         seeds = 8;
       })

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

(* Latency.t holds per-class functions, so the arch cannot be keyed by
   marshalling; spell out every field that can steer an analysis. *)
let arch_key (a : Archspec.Arch.t) =
  let buf = Buffer.create 256 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let geom (g : Archspec.Cache_geom.t) =
    bpf "%s/%d/%d/%d/%d;" g.Archspec.Cache_geom.name
      g.Archspec.Cache_geom.size_bytes g.Archspec.Cache_geom.line_bytes
      g.Archspec.Cache_geom.associativity g.Archspec.Cache_geom.hit_latency
  in
  bpf "%s;%d;%d;%h;" a.Archspec.Arch.name a.Archspec.Arch.cores
    a.Archspec.Arch.cores_per_socket a.Archspec.Arch.freq_ghz;
  bpf "%s/%d" a.Archspec.Arch.core.Archspec.Latency.name
    a.Archspec.Arch.core.Archspec.Latency.issue_width;
  List.iter
    (fun c ->
      bpf "/%d:%d"
        (a.Archspec.Arch.core.Archspec.Latency.latency c)
        (a.Archspec.Arch.core.Archspec.Latency.units_per_cycle c))
    Archspec.Latency.all_classes;
  bpf ";";
  geom a.Archspec.Arch.l1;
  geom a.Archspec.Arch.l2;
  geom a.Archspec.Arch.l3;
  bpf "%d;%h;%d;%d;%d;%d" a.Archspec.Arch.mem_latency
    a.Archspec.Arch.mem_bandwidth_bytes_per_cycle
    a.Archspec.Arch.coherence_latency a.Archspec.Arch.tlb_entries
    a.Archspec.Arch.page_bytes a.Archspec.Arch.tlb_miss_latency;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let unknown_kernel k =
  Printf.sprintf "unknown kernel %S (try: %s)" k
    (String.concat ", " (Kernels.Registry.names ()))

let source_text source =
  match source with
  | Text { name; content } -> Ok (name, content)
  | Kernel k -> (
      match Kernels.Registry.find k with
      | Some kern -> Ok ("kernel:" ^ k, kern.Kernels.Kernel.source)
      | None -> Error (unknown_kernel k))
  | Sym_kernel k -> (
      match Kernels.Registry.find k with
      | Some { Kernels.Kernel.parametric = Some p; _ } ->
          Ok ("kernel:" ^ k ^ ":parametric", p.Kernels.Kernel.psource)
      | Some _ ->
          Error (Printf.sprintf "kernel %s has no parametric variant" k)
      | None -> Error (unknown_kernel k))

let params_key params =
  String.concat ";"
    (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) params)

let opt_int = function None -> "-" | Some i -> string_of_int i
let opt_str = function None -> "-" | Some s -> s

(* the schedule component of a cache key: distribution output depends on
   both the replayed kind and the seed-set size *)
let sched_key sched seeds =
  Printf.sprintf "%s/%d"
    (match sched with
    | None -> "-"
    | Some k -> Ompsched.Dispatch.kind_name k)
    seeds

let kind_key = function
  | Analyze
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
      Printf.sprintf "analyze:%s:%d:%s:%s:%s:%b:%s:%d:%s:%b" (opt_str func)
        threads (opt_int fs_chunk) (opt_int nfs_chunk) (opt_int predict)
        contention (exact_name exact) exact_budget
        (Analysis.Lint.cost_model_name cost_model)
        json
  | Lint
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
      Printf.sprintf "lint:%d:%s:%b:%b:%s:%s:%s:%d:%s:%s" threads
        (opt_int chunk) json fixits (params_key params)
        (match fail_on with Race -> "race" | Fs -> "fs" | Never -> "never")
        (exact_name exact) exact_budget
        (Analysis.Lint.cost_model_name cost_model)
        (sched_key sched seeds)
  | Explain
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
      Printf.sprintf "explain:%s:%d:%s:%s:%s:%s:%d:%s:%s" (opt_str func)
        threads (opt_int chunk) (params_key params)
        (match engine with `Fast -> "fast" | `Reference -> "reference")
        (match format with
        | `Text -> "text"
        | `Heatmap -> "heatmap"
        | `Trace -> "trace")
        top (opt_int trace_cap) (sched_key sched seeds)
  | Advise { func; threads; jobs = _ } ->
      (* jobs only parallelizes the sweep; results are identical *)
      Printf.sprintf "advise:%s:%d" (opt_str func) threads
  | Eliminate { func; threads } ->
      Printf.sprintf "eliminate:%s:%d" (opt_str func) threads
  | Fix { func; threads; jobs = _; json } ->
      (* jobs only parallelizes the advisor sweep; results are identical *)
      Printf.sprintf "fix:%s:%d:%b" (opt_str func) threads json
  | Dump { threads } -> Printf.sprintf "dump:%d" threads

(* The lint report URI renders into the output text, so two sources with
   equal content but different display names must not share a response
   entry; fold the URI in alongside the content digest. *)
let cache_key t =
  Result.map
    (fun (uri, content) ->
      Printf.sprintf "%s|%s|%s|%s"
        (Digest.to_hex (Digest.string content))
        (Digest.to_hex (Digest.string uri))
        (arch_key t.arch) (kind_key t.kind))
    (source_text t.source)

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field_int params name default =
  match Jsonp.member name params with
  | None -> Ok default
  | Some j -> (
      match Jsonp.to_int_opt j with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let field_int_opt params name =
  match Jsonp.member name params with
  | None | Some Analysis.Json.Null -> Ok None
  | Some j -> (
      match Jsonp.to_int_opt j with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

(* counts (team, chunk and seed-set sizes) are rejected below 1 here,
   not deep inside the schedule *)
let below_one name = Error (Printf.sprintf "field %S must be >= 1" name)

let field_pos params name default =
  match field_int params name default with
  | Ok n when n < 1 -> below_one name
  | r -> r

let field_pos_opt params name =
  match field_int_opt params name with
  | Ok (Some n) when n < 1 -> below_one name
  | r -> r

let field_bool params name default =
  match Jsonp.member name params with
  | None -> Ok default
  | Some j -> (
      match Jsonp.to_bool_opt j with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %S must be a boolean" name))

let field_str_opt params name =
  match Jsonp.member name params with
  | None | Some Analysis.Json.Null -> Ok None
  | Some j -> (
      match Jsonp.to_string_opt j with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

let field_enum params name default table =
  let* s = field_str_opt params name in
  match s with
  | None -> Ok default
  | Some s -> (
      match List.assoc_opt s table with
      | Some v -> Ok v
      | None ->
          Error
            (Printf.sprintf "field %S must be one of: %s" name
               (String.concat ", " (List.map fst table))))

(* {"n": 1024, "m": 8} -> [("n", 1024); ("m", 8)] *)
let field_params params name =
  match Jsonp.member name params with
  | None -> Ok []
  | Some (Analysis.Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Jsonp.to_int_opt v with
          | Some i -> Ok (acc @ [ (k, i) ])
          | None ->
              Error
                (Printf.sprintf "field %S: binding %S must be an integer"
                   name k))
        (Ok []) fields
  | Some _ ->
      Error (Printf.sprintf "field %S must be an object of integers" name)

let decode_source params =
  let* src = field_str_opt params "source" in
  let* kern = field_str_opt params "kernel" in
  let* parametric = field_bool params "parametric" false in
  match (src, kern) with
  | Some content, None ->
      let* name = field_str_opt params "name" in
      Ok (Text { name = Option.value ~default:"<request>" name; content })
  | None, Some k -> Ok (if parametric then Sym_kernel k else Kernel k)
  | Some _, Some _ -> Error "give either \"source\" or \"kernel\", not both"
  | None, None -> Error "missing \"source\" or \"kernel\""

let decode_arch params =
  let* base =
    field_enum params "arch" Archspec.Arch.paper_machine
      [
        ("paper", Archspec.Arch.paper_machine);
        ("small_test", Archspec.Arch.small_test_machine);
      ]
  in
  let* line = field_int_opt params "line_bytes" in
  match line with
  | None -> Ok base
  | Some b -> (
      try Ok (Archspec.Arch.with_line_bytes base b)
      with Invalid_argument m -> Error m)

let decode_cost_model params =
  field_enum params "cost_model" `Sim
    [ ("sim", `Sim); ("analytic", `Analytic); ("both", `Both) ]

(* "schedule": "dynamic,2" | "guided" | "ws,4" | "static".  Static is
   the default path (use "chunk" for a static chunk), so it maps to no
   replayed kind. *)
let decode_sched params =
  let* s = field_str_opt params "schedule" in
  match s with
  | None -> Ok None
  | Some s -> (
      match Ompsched.Dispatch.of_string s with
      | Ok (`Kind k) -> Ok (Some k)
      | Ok (`Static None) -> Ok None
      | Ok (`Static (Some _)) ->
          Error
            "field \"schedule\": use \"chunk\" for a static chunk \
             (\"schedule\" takes static without one)"
      | Error m -> Error (Printf.sprintf "field \"schedule\": %s" m))

let decode_exact params =
  let* exact =
    field_enum params "exact" `Auto
      [ ("auto", `Auto); ("on", `On); ("off", `Off) ]
  in
  let* exact_budget =
    field_int params "exact_budget" Analysis.Depend.default_exact_budget
  in
  Ok (exact, exact_budget)

let of_json ~meth params =
  let* source = decode_source params in
  let* arch = decode_arch params in
  let* threads = field_pos params "threads" 8 in
  let* kind =
    match meth with
    | "analyze" ->
        let* func = field_str_opt params "func" in
        let* fs_chunk = field_pos_opt params "fs_chunk" in
        let* nfs_chunk = field_pos_opt params "nfs_chunk" in
        let* predict = field_int_opt params "predict" in
        let* contention = field_bool params "contention" false in
        let* exact, exact_budget = decode_exact params in
        let* cost_model = decode_cost_model params in
        let* json = field_bool params "json" false in
        Ok
          (Analyze
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
             })
    | "lint" ->
        let* chunk = field_pos_opt params "chunk" in
        let* json = field_bool params "json" false in
        let* fixits = field_bool params "fixits" true in
        let* bindings = field_params params "params" in
        let* fail_on =
          field_enum params "fail_on" Race
            [ ("race", Race); ("fs", Fs); ("never", Never) ]
        in
        let* exact, exact_budget = decode_exact params in
        let* cost_model = decode_cost_model params in
        let* sched = decode_sched params in
        let* seeds = field_pos params "seeds" 8 in
        Ok
          (Lint
             {
               threads;
               chunk;
               json;
               fixits;
               params = bindings;
               fail_on;
               exact;
               exact_budget;
               cost_model;
               sched;
               seeds;
             })
    | "explain" ->
        let* func = field_str_opt params "func" in
        let* chunk = field_pos_opt params "chunk" in
        let* bindings = field_params params "params" in
        let* engine =
          field_enum params "engine" `Fast
            [ ("fast", `Fast); ("reference", `Reference) ]
        in
        let* format =
          field_enum params "format" `Text
            [ ("text", `Text); ("heatmap", `Heatmap); ("trace", `Trace) ]
        in
        let* top = field_int params "top" 3 in
        let* trace_cap = field_int_opt params "trace_cap" in
        let* sched = decode_sched params in
        let* seeds = field_pos params "seeds" 8 in
        Ok
          (Explain
             {
               func;
               threads;
               chunk;
               params = bindings;
               engine;
               format;
               top;
               trace_cap;
               sched;
               seeds;
             })
    | "advise" ->
        let* func = field_str_opt params "func" in
        let* jobs = field_int_opt params "jobs" in
        Ok (Advise { func; threads; jobs })
    | "eliminate" ->
        let* func = field_str_opt params "func" in
        Ok (Eliminate { func; threads })
    | "fix" ->
        let* func = field_str_opt params "func" in
        let* jobs = field_int_opt params "jobs" in
        let* json = field_bool params "json" false in
        Ok (Fix { func; threads; jobs; json })
    | "dump" -> Ok (Dump { threads })
    | m -> Error (Printf.sprintf "unknown method %S" m)
  in
  Ok { source; arch; kind }
