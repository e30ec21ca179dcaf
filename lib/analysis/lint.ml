open Loopir

type cost_model = [ `Sim | `Analytic | `Both ]

let cost_model_name = function
  | `Sim -> "sim"
  | `Analytic -> "analytic"
  | `Both -> "both"

let cost_model_of_string = function
  | "sim" -> Some `Sim
  | "analytic" -> Some `Analytic
  | "both" -> Some `Both
  | _ -> None

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

(* The dispatcher kind a nest is analyzed under: an explicit --schedule
   wins; otherwise a dynamic/guided pragma in the source is replayed
   with its own chunk (or --chunk).  Static stays on the closed-form
   round-robin path. *)
let sched_kind_of ~opts nest =
  let granule default =
    match opts.chunk with
    | Some c -> c
    | None -> (
        match Loop_nest.chunk_spec nest with Some c -> c | None -> default)
  in
  match opts.sched with
  | Some k -> Some k
  | None -> (
      match Loop_nest.schedule_kind nest with
      | `Static -> None
      | `Dynamic -> Some (Ompsched.Dispatch.Dynamic { chunk = granule 1 })
      | `Guided -> Some (Ompsched.Dispatch.Guided { min_chunk = granule 1 }))

let all_params opts = ("num_threads", opts.threads) :: opts.params

let access_word r = if Array_ref.is_write r then "write" else "read"

let span_of_refs (a : Array_ref.t) (b : Array_ref.t) =
  Minic.Span.join a.Array_ref.span b.Array_ref.span

let span_of_pair (p : Depend.pair) = span_of_refs p.Depend.a p.Depend.b

(* Diag backend/witness fields from a pair's evidence: the backend is
   only noteworthy past the default tier. *)
let ev_fields (ev : Depend.evidence) =
  let backend =
    match ev.Depend.ev_backend with
    | Depend.Banerjee -> None
    | b -> Some (Depend.backend_name b)
  in
  (backend, Option.map Depend.witness_to_string ev.Depend.ev_witness)

(* With --exact on (not auto), budget fallbacks become findings of
   their own instead of silent SARIF properties. *)
let fallback_findings ~opts ~func pairs_ev =
  if opts.exact <> `On then []
  else
    List.filter_map
      (fun (span, repr_a, repr_b, (ev : Depend.evidence)) ->
        match ev.Depend.ev_backend with
        | Depend.Fallback msg ->
            Some
              {
                Diag.rule = "analysis/exact-budget";
                severity = Diag.Warning;
                span;
                func;
                message =
                  Printf.sprintf
                    "exact backend fell back to banerjee for %s vs %s: %s \
                     (raise --exact-budget)"
                    repr_a repr_b msg;
                fixits = [];
                region = None;
                symbolic = None;
                attribution = [];
                backend = Some (Depend.backend_name ev.Depend.ev_backend);
                witness = None;
                reason = None;
                cost = None;
                sched = None;
                dist = None;
                fix_verified = None;
              }
        | _ -> None)
      pairs_ev

(* One finding per racy pair. *)
let race_finding ~func ?region ?(ev = Depend.banerjee_ev ~must:false)
    (a : Array_ref.t) (b : Array_ref.t) =
  let backend, witness = ev_fields ev in
  {
    Diag.rule = "race/loop-carried";
    severity = Diag.Error;
    span = span_of_refs a b;
    func;
    message =
      Printf.sprintf
        "loop-carried dependence: %s (%s) and %s (%s) %s the same bytes in \
         different iterations of the parallel loop"
        a.Array_ref.repr (access_word a) b.Array_ref.repr (access_word b)
        (if ev.Depend.ev_must then "provably touch" else "may touch");
    fixits = [];
    region;
    symbolic = None;
    attribution = [];
    backend;
    witness;
    reason = None;
    cost = None;
    sched = None;
    dist = None;
    fix_verified = None;
  }

(* Unknown verdicts collapse to one finding per distinct reason. *)
let unknown_findings ~func pairs =
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (p : Depend.pair) ->
      match p.Depend.verdict with
      | Depend.Unknown reason when not (Hashtbl.mem seen reason) ->
          Hashtbl.add seen reason ();
          let backend, witness = ev_fields p.Depend.ev in
          Some
            {
              Diag.rule = "analysis/unknown";
              severity = Diag.Warning;
              span = span_of_pair p;
              func;
              message =
                Printf.sprintf
                  "cannot prove %s and %s independent: %s"
                  p.Depend.a.Array_ref.repr p.Depend.b.Array_ref.repr reason;
              fixits = [];
              region = None;
              symbolic = None;
              attribution = [];
              backend;
              witness;
              reason = Some reason;
              cost = None;
              sched = None;
              dist = None;
              fix_verified = None;
            }
      | _ -> None)
    pairs

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
   (aggregates only, no trace ring) and collapse the (writer reference,
   victim reference, thread pair) histogram to reference pairs, keeping
   the heaviest thread pair of each as its representative.  Returns the
   compiled references, the case total and the pairs sorted by
   descending weight. *)
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
      else begin
        let agg = Hashtbl.create 16 in
        let order = ref [] in
        List.iter
          (fun (p : Fsmodel.Attrib.pair_stat) ->
            let key = (p.writer_ref, p.victim_ref) in
            match Hashtbl.find_opt agg key with
            | Some (c, tp, wt, vt) ->
                Hashtbl.replace agg key (c + p.count, tp + 1, wt, vt)
            | None ->
                order := key :: !order;
                Hashtbl.add agg key (p.count, 1, p.writer_tid, p.victim_tid))
          (Fsmodel.Attrib.top_pairs ~n:max_int sink);
        let pairs =
          List.sort
            (fun (k1, (c1, _, _, _)) (k2, (c2, _, _, _)) ->
              let c = compare c2 c1 in
              if c <> 0 then c else compare k1 k2)
            (List.rev_map (fun key -> (key, Hashtbl.find agg key)) !order)
        in
        Some (refs, total, pairs)
      end

(* The top-3 sentences for one base's finding, phrased exactly like
   [fsdetect explain]'s reference-pair report. *)
let attribution_sentences ~refs ~total ~base pairs =
  let touches ((wr, vr), _) =
    (wr >= 0 && refs.(wr).Array_ref.base = base)
    || refs.(vr).Array_ref.base = base
  in
  List.filteri (fun i _ -> i < 3) (List.filter touches pairs)
  |> List.map (fun ((wr, vr), (count, tps, wt, vt)) ->
         let writer_part =
           if wr >= 0 then
             Printf.sprintf "%s written by T%d" refs.(wr).Array_ref.repr wt
           else Printf.sprintf "a write by T%d" wt
         in
         let more =
           if tps <= 1 then ""
           else Printf.sprintf " and %d more thread pair(s)" (tps - 1)
         in
         let victim_word =
           if Array_ref.is_write refs.(vr) then "written" else "read"
         in
         Printf.sprintf
           "%.1f%% of FS cases: %s invalidates %s %s by T%d (%d case(s)%s)"
           (100. *. float_of_int count /. float_of_int total)
           writer_part refs.(vr).Array_ref.repr victim_word vt count more)

(* One finding per conflicting base of the nest.  [fixv] is the lazy
   function-level fix verification (Fixer.verify on the materialized
   plan); it is forced only when a finding actually attaches fix-its,
   so race-gated and fixits-off lints never pay for it. *)
let fs_findings ~opts ~checked ~func ~advice ~fixv ~races conflicts cfg nest =
  if conflicts = [] then []
  else
    (* a nondeterministic schedule (from --schedule or a
       dynamic/guided pragma) turns the count into a distribution over
       the replayed seed set; the static path keeps the closed
       form/engine split *)
    let replayed =
      match sched_kind_of ~opts nest with
      | None -> None
      | Some kind -> (
          match
            Dist.run ~seeds:(Dist.seeds_upto opts.seeds) ~kind cfg ~nest
              ~checked
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
                "but replaying schedule(%s) over %d seed(s) at %d threads \
                 the engine counts no false-sharing case"
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
                "the cost model counts %d false-sharing case(s) in this \
                 nest at %d threads (%s)"
                fs opts.threads how
            else if fs = 0 then
              Printf.sprintf
                "but the cost model counts no false-sharing case at %d \
                 threads (%s)"
                opts.threads how
            else Printf.sprintf "no concrete count (%s)" how
          in
          (fs <> 0, fs > 0, quant, attrib, cost, None, None)
    in
    let bases =
      List.sort_uniq compare
        (List.map (fun (p : Depend.pair) -> p.Depend.a.Array_ref.base)
           conflicts)
    in
    List.map
      (fun base ->
        let ps =
          List.filter
            (fun (p : Depend.pair) -> p.Depend.a.Array_ref.base = base)
            conflicts
        in
        let example = List.hd ps in
        let span =
          List.fold_left
            (fun s p -> Minic.Span.join s (span_of_pair p))
            Minic.Span.none ps
        in
        let severity = if warn then Diag.Warning else Diag.Info in
        let fixits =
          if opts.fixits && races = [] && fix then
            fixits_for ~opts ~checked ~base advice
          else []
        in
        (* fix verification is static-schedule semantics: attached only
           where fix-its are, and never on a replayed schedule *)
        let fix_verified =
          if opts.fixits && races = [] && fix && sched_name = None then
            Lazy.force fixv
          else None
        in
        let backend, witness = ev_fields example.Depend.ev in
        {
          Diag.rule = "fs/line-conflict";
          severity;
          span;
          func;
          message =
            Printf.sprintf
              "%s and %s are byte-disjoint across parallel iterations %s; %s"
              example.Depend.a.Array_ref.repr
              example.Depend.b.Array_ref.repr
              (if example.Depend.ev.Depend.ev_must then
                 "and provably share a cache line"
               else "but may share a cache line")
              quant;
          fixits;
          region = None;
          symbolic = None;
          attribution =
            (match attrib with
            | None -> []
            | Some (refs, total, pairs) ->
                attribution_sentences ~refs ~total ~base pairs);
          backend;
          witness;
          reason = None;
          cost;
          sched = sched_name;
          dist;
          fix_verified;
        })
      bases

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

let lint_nest_sym ~opts ~checked ~func nest =
  let line_bytes = Archspec.Arch.line_bytes opts.arch in
  let params = all_params opts in
  let layout = Layout.make ~line_bytes checked in
  let extent_of base =
    try Some (Layout.size_of layout base) with Not_found -> None
  in
  let spairs, ctx, free =
    Depend.pairs_sym ~line_bytes ~params ~exact:opts.exact
      ~exact_budget:opts.exact_budget ~extent_of nest
  in
  let with_paths =
    List.map
      (fun (sp : Depend.spair) ->
        (sp, Symbolic.paths ctx sp.Depend.scases))
      spairs
  in
  let races =
    List.concat_map
      (fun ((sp : Depend.spair), paths) ->
        List.filter_map
          (fun (conds, (v, ev)) ->
            if v = Depend.Loop_carried then
              Some
                (race_finding ~func
                   ~region:(region_string ~ctx ~free conds)
                   ~ev sp.Depend.sa sp.Depend.sb)
            else None)
          paths)
      with_paths
  in
  let unknowns =
    let seen = Hashtbl.create 4 in
    List.concat_map
      (fun ((sp : Depend.spair), paths) ->
        List.filter_map
          (fun (conds, (v, ev)) ->
            match v with
            | Depend.Unknown reason when not (Hashtbl.mem seen reason) ->
                Hashtbl.add seen reason ();
                let backend, witness = ev_fields ev in
                Some
                  {
                    Diag.rule = "analysis/unknown";
                    severity = Diag.Warning;
                    span = span_of_refs sp.Depend.sa sp.Depend.sb;
                    func;
                    message =
                      Printf.sprintf "cannot prove %s and %s independent: %s"
                        sp.Depend.sa.Array_ref.repr
                        sp.Depend.sb.Array_ref.repr reason;
                    fixits = [];
                    region = Some (region_string ~ctx ~free conds);
                    symbolic = None;
                    attribution = [];
                    backend;
                    witness;
                    reason = Some reason;
                    cost = None;
                    sched = None;
                    dist = None;
                    fix_verified = None;
                  }
            | _ -> None)
          paths)
      with_paths
  in
  (* conflicting pairs grouped by base, each with its region *)
  let conflicts =
    List.concat_map
      (fun ((sp : Depend.spair), paths) ->
        List.filter_map
          (fun (conds, (v, ev)) ->
            if v = Depend.Line_conflict then Some (sp, conds, ev) else None)
          paths)
      with_paths
  in
  let fs =
    if conflicts = [] then []
    else begin
      let cfg =
        {
          (Fsmodel.Model.default_config ~arch:opts.arch ~threads:opts.threads
             ())
          with
          chunk = opts.chunk;
          params;
        }
      in
      let quant, formula, warn = sym_count ~opts ~checked ~ctx ~free cfg nest in
      let bases =
        List.sort_uniq compare
          (List.map
             (fun ((sp : Depend.spair), _, _) -> sp.Depend.sa.Array_ref.base)
             conflicts)
      in
      List.map
        (fun base ->
          let ps =
            List.filter
              (fun ((sp : Depend.spair), _, _) ->
                sp.Depend.sa.Array_ref.base = base)
              conflicts
          in
          let (example, _, ev) = List.hd ps in
          let span =
            List.fold_left
              (fun s ((sp : Depend.spair), _, _) ->
                Minic.Span.join s (span_of_refs sp.Depend.sa sp.Depend.sb))
              Minic.Span.none ps
          in
          (* the widest region among this base's conflicting paths *)
          let region =
            match ps with
            | (_, conds, _) :: rest
              when List.for_all (fun (_, c, _) -> c = conds) rest ->
                region_string ~ctx ~free conds
            | _ ->
                String.concat "; or "
                  (List.sort_uniq compare
                     (List.map
                        (fun (_, conds, _) -> region_string ~ctx ~free conds)
                        ps))
          in
          let backend, witness = ev_fields ev in
          {
            Diag.rule = "fs/line-conflict";
            severity = (if warn then Diag.Warning else Diag.Info);
            span;
            func;
            message =
              Printf.sprintf
                "%s and %s are byte-disjoint across parallel iterations but \
                 may share a cache line; %s"
                example.Depend.sa.Array_ref.repr
                example.Depend.sb.Array_ref.repr quant;
            fixits = [];
            region = Some region;
            symbolic = formula;
            attribution = [];
            backend;
            witness;
            reason = None;
            cost = None;
            sched = None;
            dist = None;
            fix_verified = None;
          })
        bases
    end
  in
  let fallbacks =
    fallback_findings ~opts ~func
      (List.concat_map
         (fun ((sp : Depend.spair), paths) ->
           List.map
             (fun (_, (_, ev)) ->
               ( span_of_refs sp.Depend.sa sp.Depend.sb,
                 sp.Depend.sa.Array_ref.repr,
                 sp.Depend.sb.Array_ref.repr,
                 ev ))
             paths)
         with_paths)
  in
  races @ unknowns @ fs @ fallbacks

let lint_nest ~opts ~checked ~func ~advice ~fixv nest =
  let line_bytes = Archspec.Arch.line_bytes opts.arch in
  let params = all_params opts in
  if Depend.free_params ~params nest <> [] then
    lint_nest_sym ~opts ~checked ~func nest
  else
    let pairs =
      Depend.pairs ~line_bytes ~params ~exact:opts.exact
        ~exact_budget:opts.exact_budget nest
    in
    let with_verdict v =
      List.filter (fun (p : Depend.pair) -> p.Depend.verdict = v) pairs
    in
    let races = with_verdict Depend.Loop_carried in
    let conflicts = with_verdict Depend.Line_conflict in
    let cfg =
      {
        (Fsmodel.Model.default_config ~arch:opts.arch ~threads:opts.threads ())
        with
        chunk = opts.chunk;
        params;
      }
    in
    let advice = if races = [] then advice else None in
    List.map
      (fun (p : Depend.pair) ->
        race_finding ~func ~ev:p.Depend.ev p.Depend.a p.Depend.b)
      races
    @ unknown_findings ~func pairs
    @ fs_findings ~opts ~checked ~func ~advice ~fixv ~races conflicts cfg nest
    @ fallback_findings ~opts ~func
        (List.map
           (fun (p : Depend.pair) ->
             (span_of_pair p, p.Depend.a.Array_ref.repr,
              p.Depend.b.Array_ref.repr, p.Depend.ev))
           pairs)

let lint_function ~opts ~checked func =
  match Lower.lower_all checked ~func ~params:(all_params opts) with
  | exception Lower.Lower_error m ->
      [
        {
          Diag.rule = "analysis/unknown";
          severity = Diag.Warning;
          span = Minic.Span.none;
          func;
          message = Printf.sprintf "cannot analyze %s: %s" func m;
          fixits = [];
          region = None;
          symbolic = None;
          attribution = [];
          backend = None;
          witness = None;
          reason = Some m;
          cost = None;
          sched = None;
          dist = None;
          fix_verified = None;
        };
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
