(* The traced replay: one request re-run as the chain of public layer
   calls that [Service.Api.exec] makes for it (through [Analysis.Lint.run],
   the [Api.run_*] functions and [Analysis.Fixer.verify]), in the same
   order, each call wrapped in a span named after the layer.  Results are
   discarded except where a later layer consumes them; the replay exists
   to attribute time, not to answer. *)

open Tr
module D = Analysis.Depend
module M = Fsmodel.Model

(* The service's parse and typecheck stages, mirrored for a session whose
   requests share one store: a source the session already parsed is not
   parsed again.  [None] (the default) re-parses every request, as a
   fresh store does. *)
let stage_memo : (string, Minic.Typecheck.checked) Hashtbl.t option ref = ref None

let parse text =
  match Option.bind !stage_memo (fun t -> Hashtbl.find_opt t text) with
  | Some checked -> checked
  | None ->
      add "minic.bytes" (float_of_int (String.length text));
      let ast = span "minic.parse" (fun () -> Minic.Parser.parse_program text) in
      let checked = span "minic.typecheck" (fun () -> Minic.Typecheck.check_program ast) in
      Option.iter (fun t -> Hashtbl.replace t text checked) !stage_memo;
      checked

let lower_all checked ~func ~params =
  span "loopir.lower" (fun () -> Loopir.Lower.lower_all checked ~func ~params)

let lower checked ~func ~params =
  span "loopir.lower" (fun () -> Loopir.Lower.lower checked ~func ~params)

let engine ~name ?engine ?attrib cfg ~nest ~checked =
  let r = span name (fun () -> M.run ?engine ?attrib cfg ~nest ~checked) in
  add "engine.iterations" (float_of_int r.M.iterations_evaluated);
  r

let pairs ~line_bytes ~params ?exact ?exact_budget nest =
  let ps =
    span "depend.pairs" (fun () ->
        D.pairs ~line_bytes ~params ?exact ?exact_budget nest)
  in
  add "depend.pairs" (float_of_int (List.length ps));
  List.iter
    (fun (p : D.pair) ->
      if p.D.ev.D.ev_backend = D.Exact then count "depend.exact")
    ps;
  ps

let closed_form cfg ~nest ~checked =
  count "closed_form.attempts";
  let r =
    span "closed_form.estimate" (fun () ->
        Analysis.Closed_form.estimate cfg ~nest ~checked)
  in
  (match r with
  | Analysis.Closed_form.Exact _ -> count "closed_form.exact"
  | Analysis.Closed_form.Inapplicable _ -> ());
  r

let reuse ~arch ?chunk ~threads ~params ~checked nest =
  span "reuse.analyze" (fun () ->
      Analysis.Reuse.analyze ~arch ?chunk ~threads ~params ~checked nest)

(* Aggregates-only attribution run, as [Lint.attribution_pairs] makes. *)
let attrib cfg ~nest ~checked =
  let sink =
    Fsmodel.Attrib.create ~trace_cap:0 ~threads:cfg.M.threads
      ~nrefs:(List.length nest.Loopir.Loop_nest.refs)
      ()
  in
  match engine ~name:"attrib.run" ~attrib:sink cfg ~nest ~checked with
  | exception _ -> ()
  | _ -> ignore (Fsmodel.Attrib.top_pairs ~n:max_int sink)

(* ---------------------------------------------------------------- *)
(* Fixer.verify                                                       *)
(* ---------------------------------------------------------------- *)

type fix_metrics = { fs_fast : int; fs_ref : int; races : int; cost : float option }

exception Symbolic_nest

let fix_measure ~arch ?chunk ~threads ~func checked =
  let params = [ ("num_threads", threads) ] in
  let nests = lower_all checked ~func ~params in
  if List.concat_map (D.free_params ~params) nests <> [] then raise Symbolic_nest;
  let line_bytes = Archspec.Arch.line_bytes arch in
  let cfg = { (M.default_config ~arch ~threads ()) with M.chunk } in
  List.fold_left
    (fun (acc, agree) nest ->
      let fast = (engine ~name:"engine.fast" ~engine:`Fast cfg ~nest ~checked).M.fs_cases in
      let refr =
        (engine ~name:"engine.reference" ~engine:`Reference cfg ~nest ~checked)
          .M.fs_cases
      in
      let races =
        List.length
          (List.filter
             (fun (p : D.pair) -> p.D.verdict = D.Loop_carried)
             (pairs ~line_bytes ~params nest))
      in
      let cost =
        match acc.cost with
        | None -> None
        | Some c -> (
            try
              let a = reuse ~arch ?chunk ~threads ~params ~checked nest in
              Some (c +. a.Analysis.Reuse.eq1.Costmodel.Total_cost.total)
            with _ -> None)
      in
      ( {
          fs_fast = acc.fs_fast + fast;
          fs_ref = acc.fs_ref + refr;
          races = acc.races + races;
          cost;
        },
        agree && fast = refr ))
    ({ fs_fast = 0; fs_ref = 0; races = 0; cost = Some 0. }, true)
    nests

(* [Some verified] for a materialized fix, [None] for nothing to fix. *)
let fixer ~arch ?advice ?chunk ~threads ~func checked =
  span "fixer.verify" @@ fun () ->
  let line_bytes = Archspec.Arch.line_bytes arch in
  match
    let plan =
      span "transform.materialize" (fun () ->
          Fsmodel.Transform.plan ?advice ~line_bytes ~threads ~func checked)
    in
    if plan.Fsmodel.Transform.rewrites = [] then None
    else begin
      let before, agree_b = fix_measure ~arch ?chunk ~threads ~func checked in
      let transformed, source =
        span "transform.materialize" (fun () ->
            let t = Fsmodel.Transform.materialize checked plan in
            (t, Fsmodel.Transform.to_source t))
      in
      let after, agree_a = fix_measure ~arch ?chunk ~threads ~func transformed in
      let roundtrip =
        try
          let re = parse source in
          let strip p = Minic.Ast.erase_spans { p with Minic.Ast.macros = [] } in
          strip re.Minic.Typecheck.prog = strip transformed.Minic.Typecheck.prog
        with _ -> false
      in
      let removal =
        if before.fs_ref = 0 then 1.0
        else 1.0 -. (float_of_int after.fs_ref /. float_of_int before.fs_ref)
      in
      let cost_ok =
        match (before.cost, after.cost) with
        | Some b, Some a when b > 0. -> a /. b <= 1.05
        | _ -> true
      in
      let verified =
        roundtrip && agree_b && agree_a
        && (before.fs_ref = 0 || removal >= 0.9)
        && after.races <= before.races && cost_ok
      in
      count "fixer.attempts";
      if verified then count "fixer.verified";
      Some verified
    end
  with
  | r -> r
  | exception Symbolic_nest -> None
  | exception Loopir.Lower.Lower_error _ -> None

(* ---------------------------------------------------------------- *)
(* Lint                                                               *)
(* ---------------------------------------------------------------- *)

(* A finding shaped like the ones [Analysis.Lint] emits, so that the
   Diag renderers get a report of the same size to render. *)
let finding ?(severity = Analysis.Diag.Warning) ?cost ?dist ?fix_verified
    ~rule ~func message =
  {
    Analysis.Diag.rule;
    severity;
    span = Minic.Span.none;
    func;
    message;
    fixits = [];
    region = None;
    symbolic = None;
    attribution = [];
    backend = None;
    witness = None;
    reason = None;
    cost;
    sched = None;
    dist;
    fix_verified;
  }

type lint_opts = {
  arch : Archspec.Arch.t;
  threads : int;
  chunk : int option;
  fixits : bool;
  params : (string * int) list;
  cost_model : Analysis.Lint.cost_model;
  sched : Ompsched.Dispatch.kind option;
  seeds : int;
  json : bool;
}

let sched_kind ~o nest =
  let granule () =
    match o.chunk with
    | Some c -> c
    | None -> Option.value ~default:1 (Loopir.Loop_nest.chunk_spec nest)
  in
  match o.sched with
  | Some k -> Some k
  | None -> (
      match Loopir.Loop_nest.schedule_kind nest with
      | `Static -> None
      | `Dynamic -> Some (Ompsched.Dispatch.Dynamic { chunk = granule () })
      | `Guided -> Some (Ompsched.Dispatch.Guided { min_chunk = granule () }))

let lint_nest_sym ~o ~checked ~func ~params nest =
  let line_bytes = Archspec.Arch.line_bytes o.arch in
  let layout = Loopir.Layout.make ~line_bytes checked in
  let extent_of base =
    try Some (Loopir.Layout.size_of layout base) with Not_found -> None
  in
  let spairs, ctx, free =
    span "depend.pairs_sym" (fun () ->
        D.pairs_sym ~line_bytes ~params ~extent_of nest)
  in
  let conflicts =
    List.concat_map
      (fun (sp : D.spair) ->
        List.filter
          (fun (_, (v, _)) -> v = D.Line_conflict)
          (Analysis.Symbolic.paths ctx sp.D.scases))
      spairs
  in
  let races =
    List.concat_map
      (fun (sp : D.spair) ->
        List.filter
          (fun (_, (v, _)) -> v = D.Loop_carried)
          (Analysis.Symbolic.paths ctx sp.D.scases))
      spairs
  in
  let race_f =
    List.map
      (fun _ -> finding ~severity:Analysis.Diag.Error ~rule:"race/loop-carried" ~func "race")
      races
  in
  if conflicts = [] then race_f
  else begin
    let cfg =
      { (M.default_config ~arch:o.arch ~threads:o.threads ()) with M.chunk = o.chunk; params }
    in
    (match free with
    | [ p ] ->
        let hi =
          match Analysis.Symbolic.bounds_of ctx p with
          | Some (_, Some hi) -> Some hi
          | _ -> None
        in
        ignore
          (span "closed_form.estimate_sym" (fun () ->
               Analysis.Closed_form.estimate_sym cfg ~nest ~checked ~param:p ?hi ()))
    | _ -> ());
    race_f @ [ finding ~rule:"fs/line-conflict" ~func "parametric conflict" ]
  end

let lint_nest ~o ~checked ~func ~advice ~fixv nest =
  let line_bytes = Archspec.Arch.line_bytes o.arch in
  let params = ("num_threads", o.threads) :: o.params in
  if D.free_params ~params nest <> [] then
    lint_nest_sym ~o ~checked ~func ~params nest
  else
    let ps = pairs ~line_bytes ~params nest in
    let races = List.filter (fun (p : D.pair) -> p.D.verdict = D.Loop_carried) ps in
    let conflicts =
      List.filter (fun (p : D.pair) -> p.D.verdict = D.Line_conflict) ps
    in
    let cfg =
      { (M.default_config ~arch:o.arch ~threads:o.threads ()) with M.chunk = o.chunk; params }
    in
    let race_f =
      List.map
        (fun _ -> finding ~severity:Analysis.Diag.Error ~rule:"race/loop-carried" ~func "race")
        races
    in
    if conflicts = [] then race_f
    else
      let hot, fix, cost, dist, replayed =
        match sched_kind ~o nest with
        | Some kind -> (
            match
              span "dist.run" (fun () ->
                  Analysis.Dist.run ~seeds:(Analysis.Dist.seeds_upto o.seeds) ~kind cfg
                    ~nest ~checked)
            with
            | d ->
                if d.Analysis.Dist.max_fs > 0 && o.cost_model <> `Analytic then
                  attrib { cfg with M.sched = Some (kind, 0) } ~nest ~checked;
                let hot = d.Analysis.Dist.max_fs > 0 in
                (hot, hot, None, Some d, true)
            | exception _ -> (true, true, None, None, true))
        | None ->
            let fs =
              try
                match closed_form cfg ~nest ~checked with
                | Analysis.Closed_form.Exact i -> i.Analysis.Closed_form.fs_cases
                | Analysis.Closed_form.Inapplicable _ when o.cost_model = `Analytic -> -1
                | Analysis.Closed_form.Inapplicable _ ->
                    (engine ~name:"engine.fast" cfg ~nest ~checked).M.fs_cases
              with _ -> -1
            in
            if fs > 0 && o.cost_model <> `Analytic then attrib cfg ~nest ~checked;
            let cost =
              match o.cost_model with
              | `Sim -> None
              | `Analytic | `Both -> (
                  match reuse ~arch:o.arch ?chunk:o.chunk ~threads:o.threads ~params ~checked nest with
                  | a ->
                      Some
                        {
                          Analysis.Diag.cost_model = "analytic";
                          eq1 = a.Analysis.Reuse.eq1;
                          fs_percent =
                            Costmodel.Total_cost.fs_percent ~fs:a.Analysis.Reuse.breakdown;
                          miss_rate = a.Analysis.Reuse.prediction.Analysis.Reuse.miss_rate;
                          mem_fetches = a.Analysis.Reuse.prediction.Analysis.Reuse.mem_fetches;
                        }
                  | exception _ -> None)
            in
            (fs <> 0, fs > 0, cost, None, false)
      in
      let advice = if races = [] then advice else None in
      let fixable = o.fixits && races = [] && fix in
      if fixable then begin
        match advice with
        | Some (a : Fsmodel.Advisor.advice) -> (
            try
              ignore
                (Fsmodel.Eliminate.plan_for checked ~line_bytes a.Fsmodel.Advisor.victims)
            with _ -> ())
        | None -> ()
      end;
      let fix_verified =
        if fixable && not replayed then
          Option.map
            (fun ok ->
              {
                Analysis.Diag.fv_rewrites = [ "rewrite" ];
                fv_fs_before = 1;
                fv_fs_after = 0;
                fv_removal = 100.;
                fv_cost_ratio = None;
                fv_ok = ok;
              })
            (Lazy.force fixv)
        else None
      in
      let severity = if hot then Analysis.Diag.Warning else Analysis.Diag.Info in
      race_f
      @ [ finding ~severity ?cost ?dist ?fix_verified ~rule:"fs/line-conflict" ~func
            "byte-disjoint across parallel iterations but may share a cache line" ]

let lint ~o ~uri text =
  let checked = parse text in
  let params = ("num_threads", o.threads) :: o.params in
  let findings =
    List.concat_map
      (fun func ->
        match lower_all checked ~func ~params with
        | exception Loopir.Lower.Lower_error m ->
            [ finding ~rule:"analysis/unknown" ~func m ]
        | nests ->
            let advice =
              if o.fixits && o.cost_model <> `Analytic then
                try
                  Some
                    (span "advisor.advise" (fun () ->
                         Fsmodel.Advisor.advise ~arch:o.arch ~threads:o.threads ~func checked))
                with _ -> None
              else None
            in
            let fixv =
              lazy
                (match advice with
                | None -> None
                | Some a -> (
                    try fixer ~arch:o.arch ~advice:a ?chunk:o.chunk ~threads:o.threads ~func checked
                    with _ -> None))
            in
            List.concat_map (lint_nest ~o ~checked ~func ~advice ~fixv) nests)
      (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog)
  in
  let report = { Analysis.Diag.uri; findings = Analysis.Diag.sort findings } in
  span "diag.render" (fun () ->
      if o.json then ignore (Analysis.Json.to_string (Analysis.Diag.to_json report))
      else ignore (Analysis.Diag.to_text report))

(* ---------------------------------------------------------------- *)
(* Fix, explain, analyze, dump                                        *)
(* ---------------------------------------------------------------- *)

let fix ~arch ~threads ~jobs ~func text =
  let checked = parse text in
  let advice =
    span "advisor.advise" (fun () ->
        Fsmodel.Advisor.advise ~arch ?domains:jobs ~threads ~func checked)
  in
  ignore (fixer ~arch ~advice ~threads ~func checked)

let explain ~arch ~threads ~func ~format ~top ~uri text =
  let checked = parse text in
  let params = [ ("num_threads", threads) ] in
  let nest = lower checked ~func ~params in
  let cfg = { (M.default_config ~arch ~threads ()) with M.params } in
  let a =
    span "explain.analyze" (fun () -> Explain.analyze ~uri ~func cfg ~nest ~checked)
  in
  span "explain.render" (fun () ->
      ignore
        (match format with
        | `Text -> Explain.to_text ~source:text ~top a
        | `Heatmap -> Explain.heatmap a
        | `Trace -> Analysis.Json.to_string (Explain.trace_json a)))

(* [Fsmodel.Overhead_percent.analyze], unrolled so the engine (or
   predictor) calls inside it get spans of their own. *)
let overhead ?(mode = Fsmodel.Overhead_percent.Full) ~arch ~threads ~fs_chunk
    ~nfs_chunk ~func checked =
  span "overhead.analyze" @@ fun () ->
  let params = [ ("num_threads", threads) ] in
  let nest = lower checked ~func ~params in
  let base = M.default_config ~arch ~threads () in
  let run chunk =
    let cfg = { base with M.chunk = Some chunk } in
    match mode with
    | Fsmodel.Overhead_percent.Full -> (engine ~name:"engine.fast" cfg ~nest ~checked).M.fs_cases
    | Fsmodel.Overhead_percent.Predicted runs ->
        (span "predict.predict" (fun () -> Fsmodel.Predict.predict ~runs cfg ~nest ~checked))
          .Fsmodel.Predict.predicted_fs
  in
  let n_fs = run fs_chunk in
  let n_nfs = run nfs_chunk in
  let nest_fs =
    {
      nest with
      Loopir.Loop_nest.pragma =
        {
          nest.Loopir.Loop_nest.pragma with
          Minic.Ast.schedule = Some (Minic.Ast.Sched_static (Some fs_chunk));
        };
    }
  in
  let fs_cost_factor = Costmodel.Total_cost.default_fs_cost_factor in
  let breakdown =
    Costmodel.Total_cost.compute ~fs_cost_factor ~contention:false ~arch ~threads
      ~fs_cases:n_fs
      ~env:(fun v -> List.assoc_opt v params)
      ~checked nest_fs
  in
  let excess =
    float_of_int (max 0 (n_fs - n_nfs))
    *. float_of_int arch.Archspec.Arch.coherence_latency
    *. fs_cost_factor /. float_of_int threads
  in
  let total = breakdown.Costmodel.Total_cost.total_cycles in
  {
    Fsmodel.Overhead_percent.threads;
    fs_chunk;
    nfs_chunk;
    n_fs;
    n_nfs;
    percent = (if total <= 0. then 0. else 100. *. excess /. total);
    breakdown;
  }

let analyze ~arch ~threads ~func ~fs_chunk ~nfs_chunk ~cost_model text =
  let checked = parse text in
  let params = [ ("num_threads", threads) ] in
  let nest = lower checked ~func ~params in
  let line_bytes = Archspec.Arch.line_bytes arch in
  (try ignore (pairs ~line_bytes ~params nest) with _ -> ());
  (match cost_model with
  | `Sim | `Both ->
      ignore (overhead ~arch ~threads ~fs_chunk ~nfs_chunk ~func checked)
  | `Analytic -> ());
  match cost_model with
  | `Sim -> ()
  | `Analytic | `Both ->
      span "reuse.analyze" (fun () ->
          match
            Analysis.Reuse.overhead ~arch ~contention:false ~threads ~fs_chunk ~nfs_chunk
              ~func checked
          with
          | Some _ -> ()
          | None | (exception _) ->
              ignore
                (Analysis.Reuse.analyze ~arch ~contention:false ~chunk:fs_chunk ~threads
                   ~params ~checked nest))

let dump ~threads text =
  let checked = parse text in
  ignore (Minic.Pretty.program_to_string checked.Minic.Typecheck.prog);
  List.iter
    (fun func -> ignore (lower_all checked ~func ~params:[ ("num_threads", threads) ]))
    (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog)
