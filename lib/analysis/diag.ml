type severity = Error | Warning | Info

type fixit = { title : string; detail : string }

type finding = {
  rule : string;
  severity : severity;
  span : Minic.Span.t;
  func : string;
  message : string;
  fixits : fixit list;
  region : string option;
      (* parameter region the finding holds in, e.g. "n >= 2" *)
  symbolic : string option;
      (* closed-form count over the free parameter, when available *)
  attribution : string list;
      (* top reference-pair attribution sentences, heaviest first *)
  backend : string option;
      (* dependence backend that decided the finding, when noteworthy *)
  witness : string option;
      (* conflicting iteration pair certified by the exact backend *)
  reason : string option;
      (* for analysis/unknown findings: the raw reason string *)
  cost : cost option;
      (* analytic Eq. 1 cost context, when the lint ran with a cost model *)
  sched : string option;
      (* replayed schedule kind (e.g. "dynamic,1"), when not static *)
  dist : Dist.t option;
      (* FS distribution over the replayed seed set, when the lint ran a
         nondeterministic schedule *)
  fix_verified : fix_verified option;
      (* evidence from re-analyzing the materialized fix, when the lint
         ran with fixits on a concrete static schedule *)
}

and fix_verified = {
  fv_rewrites : string list;  (* Transform.describe, one per rewrite *)
  fv_fs_before : int;
  fv_fs_after : int;
  fv_removal : float;  (* percent of attributed FS removed *)
  fv_cost_ratio : float option;  (* after/before analytic Total_c *)
  fv_ok : bool;  (* the full verification verdict *)
}

and cost = {
  cost_model : string;  (* "analytic" or "sim" *)
  eq1 : Costmodel.Total_cost.eq1;
  fs_percent : float;
  miss_rate : float;  (* predicted beyond-L1 miss share, in [0,1] *)
  mem_fetches : float;
}

let finding ?(fixits = []) ?region ?symbolic ?(attribution = []) ?backend
    ?witness ?reason ?cost ?sched ?dist ?fix_verified ~rule ~severity ~span
    ~func message =
  {
    rule;
    severity;
    span;
    func;
    message;
    fixits;
    region;
    symbolic;
    attribution;
    backend;
    witness;
    reason;
    cost;
    sched;
    dist;
    fix_verified;
  }

type report = { uri : string; findings : finding list }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let sort findings =
  List.stable_sort
    (fun a b ->
      let c = compare (rank a.severity) (rank b.severity) in
      if c <> 0 then c
      else
        let c =
          compare
            (a.span.Minic.Span.line, a.span.Minic.Span.col)
            (b.span.Minic.Span.line, b.span.Minic.Span.col)
        in
        if c <> 0 then c else compare a.rule b.rule)
    findings

let error_count r =
  List.length (List.filter (fun f -> f.severity = Error) r.findings)

let to_text r =
  let buf = Buffer.create 1024 in
  let nerr = ref 0 and nwarn = ref 0 and nnote = ref 0 in
  List.iter
    (fun f ->
      (match f.severity with
      | Error -> incr nerr
      | Warning -> incr nwarn
      | Info -> incr nnote);
      let pos =
        if Minic.Span.is_none f.span then ""
        else Minic.Span.to_string f.span ^ ":"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s:%s %s[%s]: %s\n" r.uri pos
           (severity_name f.severity) f.rule f.message);
      (match f.region with
      | Some c -> Buffer.add_string buf (Printf.sprintf "  where: %s\n" c)
      | None -> ());
      (match f.symbolic with
      | Some s -> Buffer.add_string buf (Printf.sprintf "  count: %s\n" s)
      | None -> ());
      (match f.sched with
      | Some s -> Buffer.add_string buf (Printf.sprintf "  schedule: %s\n" s)
      | None -> ());
      (match f.dist with
      | Some d ->
          Buffer.add_string buf
            (Printf.sprintf "  fs-dist: %s\n" (Dist.summary d))
      | None -> ());
      (match f.witness with
      | Some w -> Buffer.add_string buf (Printf.sprintf "  witness: %s\n" w)
      | None -> ());
      (match f.backend with
      | Some b when b <> "exact" && b <> "banerjee" ->
          Buffer.add_string buf (Printf.sprintf "  backend: %s\n" b)
      | _ -> ());
      (match f.cost with
      | Some c ->
          Buffer.add_string buf
            (Printf.sprintf "  cost: %s\n"
               (Format.asprintf "%a" Costmodel.Total_cost.pp_eq1 c.eq1));
          Buffer.add_string buf
            (Printf.sprintf
               "  miss: %.2f%% predicted miss rate, %.0f memory fetches \
                [%s]\n"
               (100. *. c.miss_rate) c.mem_fetches c.cost_model)
      | None -> ());
      (match f.fix_verified with
      | Some v ->
          Buffer.add_string buf
            (Printf.sprintf
               "  fix-verified: %s; N_fs %d -> %d (%.1f%% removed), cost %s \
                [%s]\n"
               (String.concat "; " v.fv_rewrites)
               v.fv_fs_before v.fv_fs_after v.fv_removal
               (match v.fv_cost_ratio with
               | Some r -> Printf.sprintf "%.2fx" r
               | None -> "n/a")
               (if v.fv_ok then "VERIFIED" else "UNVERIFIED"))
      | None -> ());
      List.iter
        (fun a -> Buffer.add_string buf (Printf.sprintf "  top: %s\n" a))
        f.attribution;
      List.iter
        (fun fx ->
          Buffer.add_string buf
            (Printf.sprintf "  fix: %s — %s\n" fx.title fx.detail))
        f.fixits)
    r.findings;
  Buffer.add_string buf
    (Printf.sprintf "%s: %d error(s), %d warning(s), %d note(s)\n" r.uri
       !nerr !nwarn !nnote);
  Buffer.contents buf

let to_json r =
  let open Json in
  let rules =
    List.sort_uniq compare (List.map (fun f -> f.rule) r.findings)
  in
  let region (s : Minic.Span.t) =
    Obj
      [
        ("startLine", Int s.line);
        ("startColumn", Int s.col);
        ("endLine", Int s.end_line);
        ("endColumn", Int s.end_col);
      ]
  in
  let result f =
    let location =
      Obj
        [
          ( "physicalLocation",
            Obj
              ([ ("artifactLocation", Obj [ ("uri", Str r.uri) ]) ]
              @
              if Minic.Span.is_none f.span then []
              else [ ("region", region f.span) ]) );
        ]
    in
    Obj
      ([
         ("ruleId", Str f.rule);
         ("level", Str (severity_name f.severity));
         ("message", Obj [ ("text", Str f.message) ]);
         ("locations", List [ location ]);
       ]
      @ (let props =
           (if f.func = "" then [] else [ ("function", Str f.func) ])
           @ (match f.region with
             | Some c -> [ ("parameterRegion", Str c) ]
             | None -> [])
           @ (match f.symbolic with
             | Some s -> [ ("symbolicCount", Str s) ]
             | None -> [])
           @ (match f.backend with
             | Some b -> [ ("dependenceBackend", Str b) ]
             | None -> [])
           @ (match f.witness with
             | Some w -> [ ("witness", Str w) ]
             | None -> [])
           @ (match f.reason with
             | Some m -> [ ("unknownReason", Str m) ]
             | None -> [])
           @ (match f.sched with
             | Some s -> [ ("scheduleKind", Str s) ]
             | None -> [])
           @ (match f.dist with
             | Some d ->
                 [
                   ( "fsDistribution",
                     Obj
                       [
                         ("seeds", Int (Array.length d.Dist.seeds));
                         ("mean", Float d.Dist.mean);
                         ("stddev", Float d.Dist.stddev);
                         ("p95", Int d.Dist.p95);
                         ("min", Int d.Dist.min_fs);
                         ("max", Int d.Dist.max_fs);
                         ("meanSteals", Float d.Dist.mean_steals);
                       ] );
                 ]
             | None -> [])
           @ (match f.cost with
             | Some c ->
                 [
                   ("predictedMissRate", Float c.miss_rate);
                   ( "costBreakdown",
                     Obj
                       [
                         ("model", Str c.cost_model);
                         ("loopCycles", Float c.eq1.Costmodel.Total_cost.loop_c);
                         ( "cacheCycles",
                           Float c.eq1.Costmodel.Total_cost.cache_c );
                         ( "machineCycles",
                           Float c.eq1.Costmodel.Total_cost.machine_c );
                         ("fsCycles", Float c.eq1.Costmodel.Total_cost.fs_c);
                         ("totalCycles", Float c.eq1.Costmodel.Total_cost.total);
                         ("fsPercent", Float c.fs_percent);
                         ("memFetches", Float c.mem_fetches);
                       ] );
                 ]
             | None -> [])
           @ (match f.fix_verified with
             | Some v ->
                 [
                   ( "fixVerified",
                     Obj
                       ([
                          ( "rewrites",
                            List (List.map (fun s -> Str s) v.fv_rewrites) );
                          ("fsBefore", Int v.fv_fs_before);
                          ("fsAfter", Int v.fv_fs_after);
                          ("removalPercent", Float v.fv_removal);
                        ]
                       @ (match v.fv_cost_ratio with
                         | Some r -> [ ("costRatio", Float r) ]
                         | None -> [])
                       @ [ ("verified", Bool v.fv_ok) ]) );
                 ]
             | None -> [])
           @
           match f.attribution with
           | [] -> []
           | l -> [ ("topAttribution", List (List.map (fun s -> Str s) l)) ]
         in
         if props = [] then [] else [ ("properties", Obj props) ])
      @
      if f.fixits = [] then []
      else
        [
          ( "fixes",
            List
              (List.map
                 (fun fx ->
                   Obj
                     [
                       ( "description",
                         Obj
                           [ ("text", Str (fx.title ^ " — " ^ fx.detail)) ]
                       );
                     ])
                 f.fixits) );
        ])
  in
  Obj
    [
      ("version", Str "2.1.0");
      ( "$schema",
        Str
          "https://json.schemastore.org/sarif-2.1.0.json" );
      ( "runs",
        List
          [
            Obj
              [
                ( "tool",
                  Obj
                    [
                      ( "driver",
                        Obj
                          [
                            ("name", Str "fslint");
                            ( "rules",
                              List
                                (List.map
                                   (fun id -> Obj [ ("id", Str id) ])
                                   rules) );
                          ] );
                    ] );
                ("results", List (List.map result r.findings));
              ];
          ] );
    ]
