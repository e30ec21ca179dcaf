open Loopir

type cost_model = [ `Sim | `Analytic | `Both ]

let cost_model_name = function
  | `Sim -> "sim"
  | `Analytic -> "analytic"
  | `Both -> "both"

type options = {
  arch : Archspec.Arch.t;
  threads : int;
  chunk : int option;
  fixits : bool;
  params : (string * int) list;  (* extra -p NAME=VAL bindings *)
  exact : Depend.exact_mode;
  exact_budget : int;
  cost_model : cost_model;
  sched : Ompsched.Dispatch.kind option;
      (* replay a nondeterministic schedule instead of the static deal *)
  seeds : int;  (* seed-set size for distribution-valued FS verdicts *)
}

let default_options =
  {
    arch = Archspec.Arch.paper_machine;
    threads = 8;
    chunk = None;
    fixits = true;
    params = [];
    exact = `Auto;
    exact_budget = Depend.default_exact_budget;
    cost_model = `Sim;
    sched = None;
    seeds = 8;
  }

let all_params opts = ("num_threads", opts.threads) :: opts.params

(* The dispatcher kind a nest is analyzed under: an explicit --schedule
   wins; otherwise the one Model.run picks for the pragma (a replayed
   dynamic/guided deal at its own chunk or --chunk).  [None] is the
   static round-robin path. *)
let sched_kind_of ~opts cfg nest =
  match opts.sched with
  | Some _ as k -> k
  | None -> Option.map fst (Fsmodel.Model.dispatch cfg nest)

(* One verdict case: a reference pair's verdict with its evidence, over
   the whole nest when it is concrete, over one parameter region when it
   is parametric.  [region] is that region rendered for the case's
   findings; independent cases yield none and carry [None]. *)
type case = {
  a : Array_ref.t;
  b : Array_ref.t;
  verdict : Depend.verdict;
  ev : Depend.evidence;
  region : string option;
}

let span_of c = Minic.Span.join c.a.Array_ref.span c.b.Array_ref.span
let access_word r = if Array_ref.is_write r then "write" else "read"

(* Diag backend/witness fields from a case's evidence: the backend is
   only noteworthy past the default tier. *)
let ev_fields (ev : Depend.evidence) =
  let backend =
    match ev.Depend.ev_backend with
    | Depend.Banerjee -> None
    | b -> Some (Depend.backend_name b)
  in
  (backend, Option.map Depend.witness_to_string ev.Depend.ev_witness)

(* The findings a nest's cases yield whatever its FS count: one per racy
   case, one per distinct unknown reason and, with --exact on (not
   auto), budget fallbacks as findings of their own instead of silent
   SARIF properties. *)
let verdict_findings ~opts ~func cases =
  let seen = Hashtbl.create 4 in
  let finding ~rule ~severity ?reason c message =
    let backend, witness = ev_fields c.ev in
    Diag.finding ~rule ~severity ~span:(span_of c) ~func ?region:c.region
      ?backend ?witness ?reason message
  in
  let races =
    List.filter_map
      (fun c ->
        if c.verdict <> Depend.Loop_carried then None
        else
          Some
            (finding ~rule:"race/loop-carried" ~severity:Diag.Error c
               (Printf.sprintf
                  "loop-carried dependence: %s (%s) and %s (%s) %s the same \
                   bytes in different iterations of the parallel loop"
                  c.a.Array_ref.repr (access_word c.a) c.b.Array_ref.repr
                  (access_word c.b)
                  (if c.ev.Depend.ev_must then "provably touch"
                   else "may touch"))))
      cases
  in
  let unknowns =
    List.filter_map
      (fun c ->
        match c.verdict with
        | Depend.Unknown reason when not (Hashtbl.mem seen reason) ->
            Hashtbl.add seen reason ();
            Some
              (finding ~rule:"analysis/unknown" ~severity:Diag.Warning ~reason
                 c
                 (Printf.sprintf "cannot prove %s and %s independent: %s"
                    c.a.Array_ref.repr c.b.Array_ref.repr reason))
        | _ -> None)
      cases
  in
  let fallbacks =
    List.filter_map
      (fun c ->
        match c.ev.Depend.ev_backend with
        | Depend.Fallback msg when opts.exact = `On ->
            Some
              (Diag.finding ~rule:"analysis/exact-budget"
                 ~severity:Diag.Warning ~span:(span_of c) ~func
                 ~backend:(Depend.backend_name c.ev.Depend.ev_backend)
                 (Printf.sprintf
                    "exact backend fell back to banerjee for %s vs %s: %s \
                     (raise --exact-budget)"
                    c.a.Array_ref.repr c.b.Array_ref.repr msg))
        | _ -> None)
      cases
  in
  races @ unknowns @ fallbacks

(* One fs/line-conflict finding per base of the conflict cases, in base
   order: the base's spans joined, its first case as the example and
   [quant] the count sentence; returned with the base and its cases for
   the fields each path adds.  [must] lets the example's evidence say
   the line is provably shared. *)
let conflict_findings ~func ~warn ~must ~quant conflicts =
  List.sort_uniq compare (List.map (fun c -> c.a.Array_ref.base) conflicts)
  |> List.map (fun base ->
         let cs = List.filter (fun c -> c.a.Array_ref.base = base) conflicts in
         let c = List.hd cs in
         let span =
           List.fold_left
             (fun s c -> Minic.Span.join s (span_of c))
             Minic.Span.none cs
         in
         let backend, witness = ev_fields c.ev in
         ( base,
           cs,
           Diag.finding ~rule:"fs/line-conflict"
             ~severity:(if warn then Diag.Warning else Diag.Info)
             ~span ~func ?backend ?witness
             (Printf.sprintf
                "%s and %s are byte-disjoint across parallel iterations %s; \
                 %s"
                c.a.Array_ref.repr c.b.Array_ref.repr
                (if must && c.ev.Depend.ev_must then
                   "and provably share a cache line"
                 else "but may share a cache line")
                quant) ))

(* Quantify a nest's false sharing: certified closed form when it
   applies, the exact engine otherwise — except under [--cost-model
   analytic], which promises zero engine evaluations and reports the
   certificate gap instead of falling back.  [closed] is the nest's
   closed-form estimate under [cfg], shared with [cost_of]. *)
let fs_count ~cost_model cfg ~nest ~checked closed =
  match Lazy.force closed with
  | Closed_form.Exact info -> (info.Closed_form.fs_cases, "closed form")
  | Closed_form.Inapplicable reason when cost_model = `Analytic ->
      ( -1,
        Printf.sprintf
          "no closed-form certificate (%s); rerun with --cost-model sim for \
           an engine count"
          reason )
  | Closed_form.Inapplicable _ ->
      ((Fsmodel.Model.run cfg ~nest ~checked).Fsmodel.Model.fs_cases, "engine")

(* The analytic Eq. 1 context attached to findings under [--cost-model
   analytic|both]; [None] when the nest's parameters are incomplete.  An
   estimate that raised would raise inside [Reuse.analyze] too. *)
let cost_of ~opts ~checked ~closed nest =
  match opts.cost_model with
  | `Sim -> None
  | `Analytic | `Both -> (
      match
        Reuse.analyze ~arch:opts.arch ?chunk:opts.chunk
          ~closed:(Lazy.force closed) ~threads:opts.threads
          ~params:(all_params opts) ~checked nest
      with
      | a ->
          Some
            {
              Diag.cost_model = "analytic";
              eq1 = a.Reuse.eq1;
              fs_percent =
                Costmodel.Total_cost.fs_percent ~fs:a.Reuse.breakdown;
              miss_rate = a.Reuse.prediction.Reuse.miss_rate;
              mem_fetches = a.Reuse.prediction.Reuse.mem_fetches;
            }
      | exception _ -> None)

let fixits_for ~opts ~checked ~base advice =
  match advice with
  | None -> []
  | Some (a : Fsmodel.Advisor.advice) ->
      let chunk_fix =
        match a.Fsmodel.Advisor.best_chunk with
        | Some c ->
            [
              {
                Diag.title = Printf.sprintf "schedule(static, %d)" c;
                detail =
                  Printf.sprintf
                    "smallest chunk whose predicted false sharing falls \
                     below 5%% of the chunk-1 level at %d threads"
                    opts.threads;
              };
            ]
        | None -> []
      in
      let victims =
        List.filter
          (fun (v : Fsmodel.Advisor.victim) -> v.Fsmodel.Advisor.base = base)
          a.Fsmodel.Advisor.victims
      in
      let line_bytes = Archspec.Arch.line_bytes opts.arch in
      let pad_fix =
        match Fsmodel.Eliminate.plan_for checked ~line_bytes victims with
        | plan ->
            List.map
              (function
                | Fsmodel.Eliminate.Pad_struct { struct_name; pad_bytes } ->
                    {
                      Diag.title =
                        Printf.sprintf "pad struct %s by %d byte(s)"
                          struct_name pad_bytes;
                      detail =
                        "a char tail field pushes consecutive elements onto \
                         distinct cache lines";
                    }
                | Fsmodel.Eliminate.Spread_array { base; factor } ->
                    {
                      Diag.title =
                        Printf.sprintf "spread %s by a factor of %d" base
                          factor;
                      detail =
                        "inter-element padding: one element per cache line";
                    })
              plan.Fsmodel.Eliminate.rewrites
        | exception Fsmodel.Eliminate.Unsupported _ -> []
      in
      pad_fix @ chunk_fix

(* Attribution for a concrete nest: rerun the engine with a recorder
   (aggregates only, no trace ring) and fold its histogram to reference
   pairs, as [fsdetect explain] does.  Returns the compiled references,
   the case total and the pairs, heaviest first. *)
let attribution_pairs ~checked cfg nest =
  let refs = Array.of_list nest.Loop_nest.refs in
  let sink =
    Fsmodel.Attrib.create ~trace_cap:0 ~threads:cfg.Fsmodel.Model.threads
      ~nrefs:(Array.length refs) ()
  in
  match Fsmodel.Model.run ~attrib:sink cfg ~nest ~checked with
  | exception _ -> None
  | _ ->
      let total = Fsmodel.Attrib.total sink in
      if total = 0 then None
      else Some (refs, total, Fsmodel.Attrib.ref_pairs sink)

(* The top-3 sentences for one base's finding: explain's reference-pair
   lines, restricted to the pairs that touch [base]. *)
let attribution_sentences ~refs ~total ~base pairs =
  let touches (p : Fsmodel.Attrib.ref_pair) =
    (p.rp_writer >= 0 && refs.(p.rp_writer).Array_ref.base = base)
    || refs.(p.rp_victim).Array_ref.base = base
  in
  List.filteri (fun i _ -> i < 3) (List.filter touches pairs)
  |> List.map (Fsmodel.Attrib.sentence ~refs ~total)

(* The FS findings of a concrete nest.  [fixv] is the lazy function-level
   fix verification (Fixer.verify on the materialized plan); it is forced
   only when a finding actually attaches fix-its, so race-gated and
   fixits-off lints never pay for it. *)
let fs_findings ~opts ~checked ~func ~advice ~fixv ~races cfg nest conflicts =
  (* a nondeterministic schedule (from --schedule or a dynamic/guided
     pragma) turns the count into a distribution over the replayed seed
     set; the static path keeps the closed form/engine split *)
  let replayed =
    match sched_kind_of ~opts cfg nest with
    | None -> None
    | Some kind -> (
        match
          Dist.run ~seeds:(Dist.seeds_upto opts.seeds) ~kind cfg ~nest ~checked
        with
        | d -> Some (kind, d)
        | exception _ -> None)
  in
  let warn, fix, quant, attrib, cost, sched_name, dist =
    match replayed with
    | Some (kind, d) ->
        let name = Ompsched.Dispatch.kind_name kind in
        let nseeds = Array.length d.Dist.seeds in
        let quant =
          if d.Dist.max_fs > 0 then
            Printf.sprintf
              "replaying schedule(%s) over %d seed(s) at %d threads, the \
               engine counts %.1f false-sharing case(s) on average (p95 %d)"
              name nseeds opts.threads d.Dist.mean d.Dist.p95
          else
            Printf.sprintf
              "but replaying schedule(%s) over %d seed(s) at %d threads the \
               engine counts no false-sharing case"
              name nseeds opts.threads
        in
        (* attribution is per-execution; seed 0 is the canonical
           representative.  The analytic cost model is static-schedule
           semantics, so no Eq. 1 context here. *)
        let attrib =
          if d.Dist.max_fs > 0 && opts.cost_model <> `Analytic then
            attribution_pairs ~checked
              { cfg with Fsmodel.Model.sched = Some (kind, 0) }
              nest
          else None
        in
        let hot = d.Dist.max_fs > 0 in
        (hot, hot, quant, attrib, None, Some name, Some d)
    | None ->
        (* one closed-form evaluation serves the count and the cost *)
        let closed = lazy (Closed_form.estimate cfg ~nest ~checked) in
        (* a nest rescued by the exact backend (unbound identifiers
           treated as free parameters) has no concrete count to run *)
        let fs, how =
          try fs_count ~cost_model:opts.cost_model cfg ~nest ~checked closed
          with _ -> (-1, "the nest references identifiers not bound by -p")
        in
        (* the analytic path never touches the engine, so no
           attribution *)
        let attrib =
          if fs > 0 && opts.cost_model <> `Analytic then
            attribution_pairs ~checked cfg nest
          else None
        in
        let cost = cost_of ~opts ~checked ~closed nest in
        let quant =
          if fs > 0 then
            Printf.sprintf
              "the cost model counts %d false-sharing case(s) in this nest \
               at %d threads (%s)"
              fs opts.threads how
          else if fs = 0 then
            Printf.sprintf
              "but the cost model counts no false-sharing case at %d threads \
               (%s)"
              opts.threads how
          else Printf.sprintf "no concrete count (%s)" how
        in
        (fs <> 0, fs > 0, quant, attrib, cost, None, None)
  in
  let fixable = opts.fixits && (not races) && fix in
  List.map
    (fun (base, _, f) ->
      let fixits =
        if fixable then fixits_for ~opts ~checked ~base advice else []
      in
      (* fix verification is static-schedule semantics: attached only
         where fix-its are, and never on a replayed schedule *)
      let fix_verified =
        if fixable && sched_name = None then Lazy.force fixv else None
      in
      {
        f with
        Diag.fixits;
        attribution =
          (match attrib with
          | None -> []
          | Some (refs, total, pairs) ->
              attribution_sentences ~refs ~total ~base pairs);
        cost;
        sched = sched_name;
        dist;
        fix_verified;
      })
    (conflict_findings ~func ~warn ~must:true ~quant conflicts)

(* ---------------------------------------------------------------- *)
(* Parametric (symbolic) nests                                       *)
(* ---------------------------------------------------------------- *)

(* Human form of the parameter region a finding holds in: the
   context-refined per-parameter bounds, plus any multi-parameter path
   atoms that cannot be folded into a single bound. *)
let region_string ~ctx ~free conds =
  let refined = List.fold_left Symbolic.assume ctx conds in
  let bounds =
    List.filter_map
      (fun p ->
        match Symbolic.bounds_of refined p with
        | Some (Some lo, Some hi) ->
            Some (Printf.sprintf "%d <= %s <= %d" lo p hi)
        | Some (Some lo, None) -> Some (Printf.sprintf "%s >= %d" p lo)
        | Some (None, Some hi) -> Some (Printf.sprintf "%s <= %d" p hi)
        | _ -> None)
      free
  in
  let rest =
    List.filter_map
      (fun c ->
        match Affine.vars c with
        | [ _ ] -> None (* already folded into the bounds above *)
        | _ -> Some (Symbolic.cond_to_string c))
      conds
  in
  match bounds @ rest with
  | [] -> "all parameter values"
  | parts -> String.concat " and " parts

(* Parametric count of a conflicting nest: a certified quasi-polynomial
   when one free parameter remains, an actionable message otherwise. *)
let sym_count ~opts ~checked ~ctx ~free cfg nest =
  match free with
  | [ p ] -> (
      let hi =
        match Symbolic.bounds_of ctx p with
        | Some (_, Some hi) -> Some hi
        | _ -> None
      in
      let est =
        match hi with
        | Some hi -> Closed_form.estimate_sym cfg ~nest ~checked ~param:p ~hi ()
        | None -> Closed_form.estimate_sym cfg ~nest ~checked ~param:p ()
      in
      match est with
      | Closed_form.Sym cert ->
          let zero =
            Array.for_all
              (fun c -> Array.for_all (fun x -> x = 0) c)
              cert.Closed_form.sc_coeffs
          in
          let formula = Closed_form.sym_to_string cert in
          if zero then
            ( Printf.sprintf
                "and the cost model counts no false-sharing case for %d <= \
                 %s <= %d at %d threads (parametric closed form)"
                cert.Closed_form.sc_base p cert.Closed_form.sc_hi opts.threads,
              Some formula,
              false )
          else
            ( Printf.sprintf
                "the cost model counts N_fs(%s) false-sharing case(s) in \
                 closed form at %d threads (parametric, %s regime)"
                p opts.threads cert.Closed_form.sc_regime,
              Some formula,
              true )
      | Closed_form.Sym_inapplicable m ->
          ( Printf.sprintf
              "no parametric count (%s); bind %s with -p %s=VAL for an \
               exact count"
              m p p,
            None,
            true ))
  | ps ->
      let names = String.concat ", " ps in
      ( Printf.sprintf
          "no parametric count with %d free parameters (%s); bind them \
           with -p NAME=VAL for an exact count"
          (List.length ps) names,
        None,
        true )

(* A parametric nest's cases: every pair's verdict paths, each with the
   parameter region it holds in. *)
let sym_cases ~opts ~checked cfg nest =
  let line_bytes = Archspec.Arch.line_bytes opts.arch in
  let layout = Layout.make ~line_bytes checked in
  let extent_of base =
    try Some (Layout.size_of layout base) with Not_found -> None
  in
  let spairs, ctx, free =
    Depend.pairs_sym ~line_bytes ~params:cfg.Fsmodel.Model.params
      ~exact:opts.exact ~exact_budget:opts.exact_budget ~extent_of nest
  in
  let cases =
    List.concat_map
      (fun (sp : Depend.spair) ->
        List.map
          (fun (conds, (verdict, ev)) ->
            {
              a = sp.Depend.sa;
              b = sp.Depend.sb;
              verdict;
              ev;
              region =
                (if verdict = Depend.Independent then None
                 else Some (region_string ~ctx ~free conds));
            })
          (Symbolic.paths ctx sp.Depend.scases))
      spairs
  in
  (cases, ctx, free)

(* The FS findings of a parametric nest: the parametric count, and the
   widest region among a base's conflicting paths.  Fix-its are
   concrete-only. *)
let sym_fs_findings ~opts ~checked ~func ~ctx ~free cfg nest conflicts =
  let quant, symbolic, warn = sym_count ~opts ~checked ~ctx ~free cfg nest in
  List.map
    (fun (_, cs, f) ->
      let region =
        match
          List.sort_uniq compare (List.filter_map (fun c -> c.region) cs)
        with
        | [ r ] -> r
        | rs -> String.concat "; or " rs
      in
      { f with Diag.region = Some region; symbolic })
    (conflict_findings ~func ~warn ~must:false ~quant conflicts)

(* A concrete nest's cases: one per reference pair. *)
let concrete_cases ~opts cfg nest =
  List.map
    (fun (p : Depend.pair) ->
      {
        a = p.Depend.a;
        b = p.Depend.b;
        verdict = p.Depend.verdict;
        ev = p.Depend.ev;
        region = None;
      })
    (Depend.pairs
       ~line_bytes:(Archspec.Arch.line_bytes opts.arch)
       ~params:cfg.Fsmodel.Model.params ~exact:opts.exact
       ~exact_budget:opts.exact_budget nest)

let lint_nest ~opts ~checked ~func ~advice ~fixv nest =
  let cfg =
    {
      (Fsmodel.Model.default_config ~arch:opts.arch ~threads:opts.threads ())
      with
      chunk = opts.chunk;
      params = all_params opts;
    }
  in
  let cases, fs =
    if Depend.free_params ~params:cfg.Fsmodel.Model.params nest = [] then
      let cases = concrete_cases ~opts cfg nest in
      let races =
        List.exists (fun c -> c.verdict = Depend.Loop_carried) cases
      in
      (cases, fs_findings ~opts ~checked ~func ~advice ~fixv ~races cfg nest)
    else
      let cases, ctx, free = sym_cases ~opts ~checked cfg nest in
      (cases, sym_fs_findings ~opts ~checked ~func ~ctx ~free cfg nest)
  in
  let conflicts =
    List.filter (fun c -> c.verdict = Depend.Line_conflict) cases
  in
  verdict_findings ~opts ~func cases
  @ if conflicts = [] then [] else fs conflicts

let lint_function ~opts ~checked func =
  match Lower.lower_all checked ~func ~params:(all_params opts) with
  | exception Lower.Lower_error m ->
      [
        Diag.finding ~rule:"analysis/unknown" ~severity:Diag.Warning
          ~span:Minic.Span.none ~func ~reason:m
          (Printf.sprintf "cannot analyze %s: %s" func m);
      ]
  | nests ->
      (* the advisor sweep is per function; share it across its nests
         and skip it entirely when fix-its are off.  The sweep runs the
         engine per candidate chunk, so the analytic cost model (zero
         engine evaluations) skips it too. *)
      let advice =
        if opts.fixits && opts.cost_model <> `Analytic then
          try
            Some
              (Fsmodel.Advisor.advise ~arch:opts.arch ~threads:opts.threads
                 ~func checked)
          with _ -> None
        else None
      in
      (* the closed fix loop: materialize the advised fix and re-analyze
         the transformed program (Fixer.verify).  Shares the advice
         sweep; forced lazily from fs_findings only where fix-its
         attach, so the analytic path (advice = None) never runs it. *)
      let fixv =
        lazy
          (match advice with
          | None -> None
          | Some a -> (
              match
                Fixer.verify ~arch:opts.arch ~advice:a ?chunk:opts.chunk
                  ~threads:opts.threads ~func checked
              with
              | Fixer.Fix v ->
                  Some
                    {
                      Diag.fv_rewrites =
                        List.map Fsmodel.Transform.describe
                          v.Fixer.plan.Fsmodel.Transform.rewrites;
                      fv_fs_before = v.Fixer.before.Fixer.fs_ref;
                      fv_fs_after = v.Fixer.after.Fixer.fs_ref;
                      fv_removal = 100. *. v.Fixer.removal;
                      fv_cost_ratio = v.Fixer.cost_ratio;
                      fv_ok = v.Fixer.verified;
                    }
              | Fixer.Nothing_to_fix _ -> None
              | exception _ -> None))
      in
      List.concat_map (lint_nest ~opts ~checked ~func ~advice ~fixv) nests

let run ?(opts = default_options) ~uri checked =
  let funcs =
    Lower.find_parallel_functions checked.Minic.Typecheck.prog
  in
  let findings = List.concat_map (lint_function ~opts ~checked) funcs in
  { Diag.uri; findings = Diag.sort findings }
