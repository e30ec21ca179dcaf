(* The oracle matrix.  One generated case flows parse -> typecheck ->
   lint -> lower and then through all four analysis paths, which are
   cross-checked against each other and against brute force; the first
   disagreement aborts the case with a (check, detail) pair the shrinker
   and the driver key on. *)

type mutation =
  | Fast
  | Closed
  | Depend_m
  | Sym
  | Attrib_m
  | Exact_m
  | Reuse_m
  | Sched_m
  | Fix_m

let mutation_of_string = function
  | "fast" -> Some Fast
  | "closed" -> Some Closed
  | "depend" -> Some Depend_m
  | "sym" -> Some Sym
  | "attrib" -> Some Attrib_m
  | "exact" -> Some Exact_m
  | "reuse" -> Some Reuse_m
  | "sched" -> Some Sched_m
  | "fix" -> Some Fix_m
  | _ -> None

let mutation_name = function
  | Fast -> "fast"
  | Closed -> "closed"
  | Depend_m -> "depend"
  | Sym -> "sym"
  | Attrib_m -> "attrib"
  | Exact_m -> "exact"
  | Reuse_m -> "reuse"
  | Sched_m -> "sched"
  | Fix_m -> "fix"

let mutation_names =
  [
    "fast"; "closed"; "depend"; "sym"; "attrib"; "exact"; "reuse"; "sched";
    "fix";
  ]

type outcome = {
  failure : (string * string) option;
  exercised : string list;
  promote : string option;
}

exception Fail of string * string

let line_bytes = 64

(* ------------------------------------------------------------------ *)
(* Brute-force dependence oracle                                       *)
(* ------------------------------------------------------------------ *)

exception Too_big

let fdiv x y = if x >= 0 then x / y else -(((-x) + y - 1) / y)

(* Enumerate distinct iterations of the parallel loop (same values of
   the sequential outer variables, inner variables free within their
   real — possibly triangular — bounds) and look for byte overlap and
   cache-line sharing between [a] in one and [b] in the other.  This is
   the ground truth Depend's must-claims are judged against:
   [Independent] forbids both, [Line_conflict] forbids byte overlap.
   Gives up (returns [None]) past [budget] elementary steps. *)
let brute_pair ~params ~budget (nest : Loopir.Loop_nest.t)
    (a : Loopir.Array_ref.t) (b : Loopir.Array_ref.t) =
  let loops = nest.Loopir.Loop_nest.loops in
  let p = nest.Loopir.Loop_nest.parallel_depth in
  let outer = List.filteri (fun i _ -> i < p) loops in
  let par = List.nth loops p in
  let inner = List.filteri (fun i _ -> i > p) loops in
  let eval env e =
    Loopir.Expr_eval.eval
      (fun v ->
        match List.assoc_opt v env with
        | Some _ as r -> r
        | None -> List.assoc_opt v params)
      e
  in
  let values (l : Loopir.Loop_nest.loop) env =
    let lo = eval env l.lower and hi = eval env l.upper_excl in
    let rec go v acc =
      if v >= hi then List.rev acc else go (v + l.step) (v :: acc)
    in
    go lo []
  in
  let rec envs ls env =
    match ls with
    | [] -> [ env ]
    | (l : Loopir.Loop_nest.loop) :: rest ->
        List.concat_map (fun v -> envs rest ((l.var, v) :: env)) (values l env)
  in
  let cost = ref 0 in
  let bump () =
    incr cost;
    if !cost > budget then raise Too_big
  in
  let offsets (r : Loopir.Array_ref.t) env =
    List.map
      (fun e ->
        bump ();
        Loopir.Affine.eval (fun v -> List.assoc v e) r.Loopir.Array_ref.offset)
      (envs inner env)
  in
  try
    let bytes = ref false and line = ref false in
    List.iter
      (fun oenv ->
        let tbl =
          List.map
            (fun v ->
              let env = (par.Loopir.Loop_nest.var, v) :: oenv in
              (v, offsets a env, offsets b env))
            (values par oenv)
        in
        List.iter
          (fun (v1, oa, _) ->
            List.iter
              (fun (v2, _, ob) ->
                if v1 <> v2 && not (!bytes && !line) then
                  List.iter
                    (fun x ->
                      List.iter
                        (fun y ->
                          bump ();
                          let ex = x + a.Loopir.Array_ref.size_bytes - 1
                          and ey = y + b.Loopir.Array_ref.size_bytes - 1 in
                          if x <= ey && y <= ex then bytes := true;
                          if
                            fdiv x line_bytes <= fdiv ey line_bytes
                            && fdiv y line_bytes <= fdiv ex line_bytes
                          then line := true)
                        ob)
                    oa)
              tbl)
          tbl)
      (envs outer []);
    Some (!bytes, !line)
  with Too_big -> None

(* Corrupt the first exact witness so the witness-replay check has a
   bug to catch under --mutate exact. *)
let apply_exact_mutation mutate pairs =
  match mutate with
  | Some Exact_m ->
      let injected = ref false in
      List.map
        (fun (p : Analysis.Depend.pair) ->
          match p.Analysis.Depend.ev.Analysis.Depend.ev_witness with
          | Some w when not !injected ->
              injected := true;
              let w_b =
                match List.rev w.Analysis.Depend.w_b with
                | (v, x) :: tl -> List.rev ((v, x + 1) :: tl)
                | [] -> []
              in
              {
                p with
                Analysis.Depend.ev =
                  {
                    p.Analysis.Depend.ev with
                    Analysis.Depend.ev_witness =
                      Some { w with Analysis.Depend.w_b };
                  };
              }
          | _ -> p)
        pairs
  | _ -> pairs

let apply_depend_mutation mutate pairs =
  match mutate with
  | Some Depend_m ->
      let injected = ref false in
      List.map
        (fun (p : Analysis.Depend.pair) ->
          if (not !injected) && p.verdict = Analysis.Depend.Line_conflict then (
            injected := true;
            { p with Analysis.Depend.verdict = Analysis.Depend.Independent })
          else p)
        pairs
  | _ -> pairs

(* ------------------------------------------------------------------ *)
(* Per-nest analysis cross-checks                                      *)
(* ------------------------------------------------------------------ *)

let analyze_nest ~mutate ~threads ~chunk ~brute_budget ~sym_cap ~mark ~fail
    (nest : Loopir.Loop_nest.t) (checked : Minic.Typecheck.checked) =
  let base_params = [ ("num_threads", threads) ] in
  let cfg =
    { (Fsmodel.Model.default_config ~threads ()) with chunk; params = base_params }
  in
  let nrefs = List.length nest.Loopir.Loop_nest.refs in
  let pair_hist r =
    List.sort compare
      (Fsmodel.Attrib.fold_pairs r ~init:[]
         ~f:(fun acc ~writer_ref ~victim_ref ~writer_tid ~victim_tid ~count ->
           (writer_ref, victim_ref, writer_tid, victim_tid, count) :: acc))
  in
  let engines ps label =
    let c = { cfg with Fsmodel.Model.params = ps } in
    let fast_rec = Fsmodel.Attrib.create ~trace_cap:0 ~threads ~nrefs () in
    let ref_rec = Fsmodel.Attrib.create ~trace_cap:0 ~threads ~nrefs () in
    let fast =
      Fsmodel.Model.run ~engine:`Fast ~attrib:fast_rec c ~nest ~checked
    in
    let refr =
      Fsmodel.Model.run ~engine:`Reference ~attrib:ref_rec c ~nest ~checked
    in
    let fast_fs =
      fast.Fsmodel.Model.fs_cases + (if mutate = Some Fast then 1 else 0)
    in
    mark "engine/fast-vs-ref";
    if
      fast_fs <> refr.Fsmodel.Model.fs_cases
      || fast.thread_steps <> refr.thread_steps
      || fast.iterations_evaluated <> refr.iterations_evaluated
      || fast.chunk_runs <> refr.chunk_runs
    then
      fail "engine/fast-vs-ref"
        (Printf.sprintf
           "%s: fast fs=%d steps=%d iters=%d runs=%d, reference fs=%d \
            steps=%d iters=%d runs=%d"
           label fast_fs fast.thread_steps fast.iterations_evaluated
           fast.chunk_runs refr.Fsmodel.Model.fs_cases refr.thread_steps
           refr.iterations_evaluated refr.chunk_runs);
    (* attribution conservation: each recorder's total and per-pair sum
       must equal its engine's count *)
    let fast_total =
      Fsmodel.Attrib.total fast_rec
      + (if mutate = Some Attrib_m then 1 else 0)
    in
    let pair_sum r =
      List.fold_left (fun a (_, _, _, _, c) -> a + c) 0 (pair_hist r)
    in
    mark "attrib/conserve";
    if
      fast_total <> fast.Fsmodel.Model.fs_cases
      || Fsmodel.Attrib.total ref_rec <> refr.Fsmodel.Model.fs_cases
      || pair_sum fast_rec <> Fsmodel.Attrib.total fast_rec
      || pair_sum ref_rec <> Fsmodel.Attrib.total ref_rec
    then
      fail "attrib/conserve"
        (Printf.sprintf
           "%s: fast recorded %d (pairs %d) of %d, reference recorded %d \
            (pairs %d) of %d"
           label fast_total (pair_sum fast_rec) fast.Fsmodel.Model.fs_cases
           (Fsmodel.Attrib.total ref_rec)
           (pair_sum ref_rec) refr.Fsmodel.Model.fs_cases);
    (* both engines must attribute every case to the same provenance *)
    mark "attrib/engines";
    if pair_hist fast_rec <> pair_hist ref_rec then
      fail "attrib/engines"
        (label ^ ": fast and reference recorders disagree on a pair");
    refr.Fsmodel.Model.fs_cases
  in
  (* check one must-claim against ground truth: [Independent] forbids
     any sharing, [Line_conflict] forbids byte overlap *)
  let brute_verdict ~check ~who ps a b v =
    match v with
    | Analysis.Depend.Loop_carried | Analysis.Depend.Unknown _ ->
        (* may-results: any ground truth is consistent *)
        ()
    | _ -> (
        match brute_pair ~params:ps ~budget:brute_budget nest a b with
        | None -> ()
        | Some (bytes, line) ->
            mark check;
            let bad =
              match v with
              | Analysis.Depend.Independent -> bytes || line
              | Analysis.Depend.Line_conflict -> bytes
              | _ -> false
            in
            if bad then
              fail check
                (Printf.sprintf "%s vs %s%s: verdict %s but brute force \
                                 finds %s"
                   a.Loopir.Array_ref.repr b.Loopir.Array_ref.repr who
                   (Analysis.Depend.verdict_name v)
                   (if bytes then "byte overlap" else "line sharing")))
  in
  (* replay an exact witness: distinct parallel iterations, and the
     claimed byte overlap / line sharing must hold at those values *)
  let witness_ok ps (p : Analysis.Depend.pair)
      (w : Analysis.Depend.witness) =
    let par =
      (List.nth nest.Loopir.Loop_nest.loops
         nest.Loopir.Loop_nest.parallel_depth)
        .Loopir.Loop_nest.var
    in
    let env side v =
      match List.assoc_opt v side with
      | Some x -> x
      | None -> (
          match List.assoc_opt v w.Analysis.Depend.w_params with
          | Some x -> x
          | None -> List.assoc v ps)
    in
    match
      ( List.assoc_opt par w.Analysis.Depend.w_a,
        List.assoc_opt par w.Analysis.Depend.w_b )
    with
    | Some ka, Some kb when ka <> kb -> (
        let oa =
          Loopir.Affine.eval (env w.Analysis.Depend.w_a)
            p.Analysis.Depend.a.Loopir.Array_ref.offset
        and ob =
          Loopir.Affine.eval (env w.Analysis.Depend.w_b)
            p.Analysis.Depend.b.Loopir.Array_ref.offset
        in
        let ea = oa + p.Analysis.Depend.a.Loopir.Array_ref.size_bytes - 1
        and eb = ob + p.Analysis.Depend.b.Loopir.Array_ref.size_bytes - 1 in
        let bytes = oa <= eb && ob <= ea in
        let line =
          max (fdiv oa line_bytes) (fdiv ob line_bytes)
          <= min (fdiv ea line_bytes) (fdiv eb line_bytes)
        in
        match p.Analysis.Depend.verdict with
        | Analysis.Depend.Loop_carried -> bytes
        | Analysis.Depend.Line_conflict -> line && not bytes
        | _ -> false)
    | _ -> false
  in
  let rank = function
    | Analysis.Depend.Independent -> 0
    | Analysis.Depend.Line_conflict -> 1
    | Analysis.Depend.Loop_carried -> 2
    | Analysis.Depend.Unknown _ -> 3
  in
  let brute ps =
    (* legacy invariants on the first tier alone *)
    let banerjee =
      Analysis.Depend.pairs ~line_bytes ~params:ps ~exact:`Off nest
    in
    let banerjee = apply_depend_mutation mutate banerjee in
    List.iter
      (fun (p : Analysis.Depend.pair) ->
        brute_verdict ~check:"depend/brute" ~who:"" ps p.a p.b p.verdict)
      banerjee;
    let exact = Analysis.Depend.pairs ~line_bytes ~params:ps nest in
    let exact = apply_exact_mutation mutate exact in
    List.iter2
      (fun (bp : Analysis.Depend.pair) (xp : Analysis.Depend.pair) ->
        (* the exact tier only tightens the Banerjee verdict *)
        mark "exact/refines";
        (match (xp.verdict, bp.verdict) with
        | _, Analysis.Depend.Unknown _ -> ()
        | Analysis.Depend.Unknown _, _ ->
            fail "exact/refines"
              (Printf.sprintf "%s vs %s: exact says unknown, banerjee says %s"
                 xp.a.Loopir.Array_ref.repr xp.b.Loopir.Array_ref.repr
                 (Analysis.Depend.verdict_name bp.verdict))
        | x, y ->
            if rank x > rank y then
              fail "exact/refines"
                (Printf.sprintf
                   "%s vs %s: exact says %s, strictly worse than banerjee %s"
                   xp.a.Loopir.Array_ref.repr xp.b.Loopir.Array_ref.repr
                   (Analysis.Depend.verdict_name x)
                   (Analysis.Depend.verdict_name y)));
        (* exact must-verdicts are exact in both directions *)
        (match (xp.ev.Analysis.Depend.ev_backend, xp.ev.ev_must) with
        | Analysis.Depend.Exact, true -> (
            match brute_pair ~params:ps ~budget:brute_budget nest xp.a xp.b with
            | None -> ()
            | Some (bytes, line) ->
                mark "exact/brute";
                let want =
                  match xp.verdict with
                  | Analysis.Depend.Independent -> (false, false)
                  | Analysis.Depend.Line_conflict -> (false, true)
                  | Analysis.Depend.Loop_carried -> (bytes, line)
                  | Analysis.Depend.Unknown _ -> (bytes, line)
                in
                let bad =
                  match xp.verdict with
                  | Analysis.Depend.Loop_carried -> not bytes
                  | _ -> (bytes, line) <> want
                in
                if bad then
                  fail "exact/brute"
                    (Printf.sprintf
                       "%s vs %s: exact must-verdict %s but brute force sees \
                        bytes=%b line=%b"
                       xp.a.Loopir.Array_ref.repr xp.b.Loopir.Array_ref.repr
                       (Analysis.Depend.verdict_name xp.verdict)
                       bytes line))
        | _ -> ());
        (* every emitted witness must replay *)
        match xp.ev.Analysis.Depend.ev_witness with
        | Some w ->
            mark "exact/witness";
            if not (witness_ok ps xp w) then
              fail "exact/witness"
                (Printf.sprintf "%s vs %s: witness %s does not replay for %s"
                   xp.a.Loopir.Array_ref.repr xp.b.Loopir.Array_ref.repr
                   (Analysis.Depend.witness_to_string w)
                   (Analysis.Depend.verdict_name xp.verdict))
        | None -> ())
      banerjee exact
  in
  match Analysis.Depend.free_params ~params:base_params nest with
  | [] ->
      let fs = engines base_params "concrete" in
      (* seeded-schedule laws (concrete nests only): replay determinism
         across runs and engines, the static-equivalence collapse, and
         the Cole-Ramachandran steal bound against the block deal *)
      let model ?(threads = threads) ?engine sched =
        Fsmodel.Model.run ?engine
          { cfg with Fsmodel.Model.threads; sched }
          ~nest ~checked
      in
      let dyn1 = Ompsched.Dispatch.Dynamic { chunk = 1 } in
      let r1 = model (Some (dyn1, 3)) in
      let replay_fs =
        (model (Some (dyn1, 3))).Fsmodel.Model.fs_cases
        + (if mutate = Some Sched_m then 1 else 0)
      in
      let rref = model ~engine:`Reference (Some (dyn1, 3)) in
      mark "sched/replay";
      if
        r1.Fsmodel.Model.fs_cases <> replay_fs
        || r1.Fsmodel.Model.fs_cases <> rref.Fsmodel.Model.fs_cases
      then
        fail "sched/replay"
          (Printf.sprintf
             "dynamic,1 seed 3: fast counts %d then %d on replay, reference \
              %d"
             r1.Fsmodel.Model.fs_cases replay_fs rref.Fsmodel.Model.fs_cases);
      (* a one-thread team, or one chunk covering the whole trip, must
         reproduce the static deal exactly *)
      let solo = (model ~threads:1 None).Fsmodel.Model.fs_cases in
      let whole =
        max 1
          (Loopir.Loop_nest.total_iterations nest ~env:(fun v ->
               List.assoc_opt v base_params))
      in
      let big =
        (model (Some (Ompsched.Dispatch.Dynamic { chunk = whole }, 7)))
          .Fsmodel.Model.fs_cases
      in
      let one = (model ~threads:1 (Some (dyn1, 9))).Fsmodel.Model.fs_cases in
      mark "sched/static-equiv";
      if big <> solo || one <> solo then
        fail "sched/static-equiv"
          (Printf.sprintf
             "one-thread static counts %d, trip-chunk dynamic counts %d, \
              one-thread dynamic counts %d"
             solo big one);
      (* work stealing departs from the block deal only at steals, and
         each steal relocates one chunk: the extra FS cases are bounded
         by (conflicting accesses per relocated iteration) * chunk per
         steal *)
      (if
         Loopir.Loop_nest.schedule_kind nest = `Static
         && Loopir.Loop_nest.chunk_spec nest = None
         && chunk = None
       then
         let ws_chunk = 2 in
         (* the O(chunk) of the bound is in innermost accesses: each
            relocated parallel iteration expands to the nest's inner
            work (loose when outer sequential loops exist — the factor
            only ever widens the bound) *)
         let par_trip =
           match
             Loopir.Loop_nest.trip_count
               (Loopir.Loop_nest.parallel_loop nest)
               ~env:(fun v -> List.assoc_opt v base_params)
           with
           | t -> max 1 t
           | exception _ -> 1
         in
         let inner_per = max 1 (whole / par_trip) in
         let per_steal = 2 * threads * nrefs * ws_chunk * inner_per in
         List.iter
           (fun seed ->
             let r =
               model
                 (Some (Ompsched.Dispatch.Work_stealing { chunk = ws_chunk },
                        seed))
             in
             mark "sched/steal-bound";
             let bound = fs + (per_steal * r.Fsmodel.Model.steals) in
             if r.Fsmodel.Model.fs_cases > bound then
               fail "sched/steal-bound"
                 (Printf.sprintf
                    "ws,%d seed %d: %d FS case(s) with %d steal(s) exceeds \
                     block deal %d + %d/steal"
                    ws_chunk seed r.Fsmodel.Model.fs_cases
                    r.Fsmodel.Model.steals fs per_steal))
           [ 0; 1; 2 ]);
      (* the static reuse model must conserve accesses across its hit
         buckets on every nest it can evaluate *)
      (match
         Analysis.Reuse.predict ~arch:cfg.Fsmodel.Model.arch ~threads
           ~env:(fun v -> List.assoc_opt v base_params)
           nest
       with
      | p ->
          mark "reuse/conserve";
          let open Analysis.Reuse in
          let sum =
            p.l1_hits +. p.l2_hits +. p.l3_hits +. p.c2c_transfers
            +. p.mem_fetches
            +. (if mutate = Some Reuse_m then 1. else 0.)
          in
          if
            Float.abs (sum -. p.accesses) > 1e-3
            || p.miss_rate < 0. || p.miss_rate > 1.
            || p.cache_cycles < 0.
          then
            fail "reuse/conserve"
              (Printf.sprintf
                 "buckets sum to %.3f of %.0f accesses (miss %.3f, stall \
                  %.0f)"
                 sum p.accesses p.miss_rate p.cache_cycles)
      | exception _ -> ());
      (match Analysis.Closed_form.estimate cfg ~nest ~checked with
      | Analysis.Closed_form.Exact info ->
          let c =
            info.Analysis.Closed_form.fs_cases
            + (if mutate = Some Closed then 1 else 0)
          in
          mark "closed/exact";
          if c <> fs then
            fail "closed/exact"
              (Printf.sprintf "closed form %d (regime %s) vs engine %d" c
                 info.Analysis.Closed_form.regime fs)
      | Analysis.Closed_form.Inapplicable _ -> ());
      brute base_params
  | [ pname ] ->
      let cap = max 0 sym_cap in
      let clip v = v >= 0 && v <= cap in
      let samples =
        List.sort_uniq compare
          (List.filter clip
             [ 0; 1; 2; 3; threads; (2 * threads) + 1; cap - 1; cap ])
      in
      let engine_at = Hashtbl.create 8 in
      let engine v =
        match Hashtbl.find_opt engine_at v with
        | Some fs -> fs
        | None ->
            let fs =
              engines
                ((pname, v) :: base_params)
                (Printf.sprintf "%s=%d" pname v)
            in
            Hashtbl.add engine_at v fs;
            fs
      in
      let engine_samples =
        List.sort_uniq compare (List.filter clip [ 1; cap / 2; cap ])
      in
      List.iter (fun v -> ignore (engine v)) engine_samples;
      brute ((pname, min cap (2 * threads)) :: base_params);
      (* the symbolic case split refines the concrete analysis:
         instantiated anywhere it must be at least as severe as the
         concrete verdict (the symbolic side only ever widens variable
         ranges, and feasibility is monotone in them), and its own
         must-claims must survive brute force *)
      let spairs, _ctx, _fp =
        Analysis.Depend.pairs_sym ~line_bytes ~params:base_params nest
      in
      let spairs_off, _, _ =
        Analysis.Depend.pairs_sym ~line_bytes ~params:base_params ~exact:`Off
          nest
      in
      List.iter
        (fun v ->
          let conc =
            Analysis.Depend.pairs ~line_bytes
              ~params:((pname, v) :: base_params)
              nest
          in
          if List.length conc <> List.length spairs then
            fail "sym/depend"
              (Printf.sprintf "%s=%d: %d symbolic pairs vs %d concrete" pname
                 v (List.length spairs) (List.length conc));
          List.iter2
            (fun (sp : Analysis.Depend.spair) (cp : Analysis.Depend.pair) ->
              let valuation x =
                if x = pname then v else List.assoc x base_params
              in
              let inst, _ = Analysis.Symbolic.eval valuation sp.scases in
              let inst =
                if mutate = Some Sym then Analysis.Depend.Independent
                else inst
              in
              mark "sym/depend";
              let refines =
                match (inst, cp.Analysis.Depend.verdict) with
                (* concrete Unknown: the symbolic exact tier may decide *)
                | _, Analysis.Depend.Unknown _ -> true
                | Analysis.Depend.Unknown _, _ -> false
                | x, y -> rank x >= rank y
              in
              if not refines then
                fail "sym/depend"
                  (Printf.sprintf
                     "%s vs %s at %s=%d: symbolic says %s, concrete says %s \
                      (symbolic must be at least as severe)"
                     sp.sa.Loopir.Array_ref.repr sp.sb.Loopir.Array_ref.repr
                     pname v
                     (Analysis.Depend.verdict_name inst)
                     (Analysis.Depend.verdict_name cp.Analysis.Depend.verdict));
              brute_verdict ~check:"sym/depend-sound"
                ~who:(Printf.sprintf " at %s=%d" pname v)
                ((pname, v) :: base_params)
                sp.sa sp.sb inst)
            spairs conc;
          (* the refined symbolic tree only tightens the unrefined one *)
          List.iter2
            (fun (sp : Analysis.Depend.spair) (so : Analysis.Depend.spair) ->
              let valuation x =
                if x = pname then v else List.assoc x base_params
              in
              let xi, _ = Analysis.Symbolic.eval valuation sp.scases in
              let oi, _ = Analysis.Symbolic.eval valuation so.scases in
              mark "exact/sym";
              let ok =
                match (xi, oi) with
                | _, Analysis.Depend.Unknown _ -> true
                | Analysis.Depend.Unknown _, _ -> false
                | x, y -> rank x <= rank y
              in
              if not ok then
                fail "exact/sym"
                  (Printf.sprintf
                     "%s vs %s at %s=%d: refined tree says %s, unrefined %s"
                     sp.sa.Loopir.Array_ref.repr sp.sb.Loopir.Array_ref.repr
                     pname v
                     (Analysis.Depend.verdict_name xi)
                     (Analysis.Depend.verdict_name oi)))
            spairs spairs_off)
        samples;
      (* a certified quasi-polynomial must equal the engine count *)
      (match
         Analysis.Closed_form.estimate_sym cfg ~nest ~checked ~param:pname
           ~hi:cap ()
       with
      | Analysis.Closed_form.Sym cert ->
          List.iter
            (fun v ->
              if
                v >= cert.Analysis.Closed_form.sc_base
                && v <= cert.Analysis.Closed_form.sc_hi
              then (
                let predicted =
                  Analysis.Closed_form.sym_eval cert v
                  + (if mutate = Some Sym then 1 else 0)
                in
                let fs = engine v in
                mark "sym/count";
                if predicted <> fs then
                  fail "sym/count"
                    (Printf.sprintf
                       "%s=%d: certificate gives %d, engine counts %d \
                        (regime %s)"
                       pname v predicted fs
                       cert.Analysis.Closed_form.sc_regime)))
            engine_samples
      | Analysis.Closed_form.Sym_inapplicable _ -> ())
  | _ :: _ :: _ ->
      (* several free parameters: region-qualified verdicts must at
         least come out without raising *)
      ignore
        (Analysis.Depend.pairs_sym ~line_bytes ~params:base_params nest);
      mark "sym/multi-param"

(* ------------------------------------------------------------------ *)
(* Front end shared by spec and source checks                          *)
(* ------------------------------------------------------------------ *)

let run_lint ~threads ~chunk ~fixits checked =
  let opts =
    {
      Analysis.Lint.default_options with
      threads;
      chunk;
      fixits;
      params = [];
    }
  in
  Analysis.Lint.run ~opts ~uri:"fuzz.c" checked

let lint_checks ~threads ~chunk ~fixits ~mark ~fail checked =
  let report =
    match run_lint ~threads ~chunk ~fixits checked with
    | r -> r
    | exception e -> fail "lint/crash" (Printexc.to_string e); assert false
  in
  let text = Analysis.Diag.to_text report in
  if String.length text = 0 then fail "lint/render" "empty text report";
  mark "lint/render";
  (match
     Json_check.validate_sarif
       (Analysis.Json.to_string (Analysis.Diag.to_json report))
   with
  | Ok () -> mark "lint/json"
  | Error m -> fail "lint/json" m);
  report

(* Reference-engine FS count of every nest of [func], under the config
   [Fixer.verify] measures with. *)
let reference_fs ~threads ~func checked =
  let cfg = Fsmodel.Model.default_config ~threads () in
  List.fold_left
    (fun acc nest ->
      acc
      + (Fsmodel.Model.run ~engine:`Reference cfg ~nest ~checked)
          .Fsmodel.Model.fs_cases)
    0
    (Loopir.Lower.lower_all checked ~func
       ~params:[ ("num_threads", threads) ])

(* The fix loop's own laws.  [Fixer.verify] is called WITHOUT advice:
   the advisor runs a Par_sweep internally, and nesting domain pools
   inside the fuzzing pool is both slow and unnecessary here — the
   layout/privatization rewrites do not depend on the chunk sweep.
   Underdelivery (a materialized fix that does not verify) is NOT an
   oracle failure: it is exactly the mining yield the continuous corpus
   miner promotes into test/corpus/, so it lands in [promote]. *)
let fix_checks ~mutate ~threads ~func ~mark ~fail ~promote checked =
  match Analysis.Fixer.verify ~threads ~func checked with
  | Analysis.Fixer.Nothing_to_fix _ -> ()
  | Analysis.Fixer.Fix v ->
      mark "fix/roundtrip";
      if not v.Analysis.Fixer.roundtrip_ok then
        fail "fix/roundtrip"
          (func
         ^ ": transformed source does not re-parse/re-typecheck to the \
            same span-erased AST");
      mark "fix/verified";
      (* verdicts are a pure function of the program: a second run must
         reproduce every claimed metric bit-for-bit *)
      let again =
        match Analysis.Fixer.verify ~threads ~func checked with
        | Analysis.Fixer.Fix v2 -> v2
        | Analysis.Fixer.Nothing_to_fix r ->
            fail "fix/verified"
              (func ^ ": second verify found nothing to fix: " ^ r);
            assert false
      in
      let claimed_after =
        v.Analysis.Fixer.after.Analysis.Fixer.fs_ref
        + (if mutate = Some Fix_m then 1 else 0)
      in
      if
        claimed_after <> again.Analysis.Fixer.after.Analysis.Fixer.fs_ref
        || v.Analysis.Fixer.before.Analysis.Fixer.fs_ref
           <> again.Analysis.Fixer.before.Analysis.Fixer.fs_ref
        || v.Analysis.Fixer.verified <> again.Analysis.Fixer.verified
      then
        fail "fix/verified"
          (Printf.sprintf
             "%s: verdict not deterministic: N_fs %d->%d verified=%b, then \
              %d->%d verified=%b"
             func v.Analysis.Fixer.before.Analysis.Fixer.fs_ref claimed_after
             v.Analysis.Fixer.verified
             again.Analysis.Fixer.before.Analysis.Fixer.fs_ref
             again.Analysis.Fixer.after.Analysis.Fixer.fs_ref
             again.Analysis.Fixer.verified);
      (* the reported counts are the certified closed form where it
         applies, so the Reference engine recounts both sides here *)
      let recount side claimed program =
        let r = reference_fs ~threads ~func program in
        if claimed <> r then
          fail "fix/verified"
            (Printf.sprintf "%s: N_fs %s the fix is %d, Reference engine %d"
               func side claimed r)
      in
      recount "before" v.Analysis.Fixer.before.Analysis.Fixer.fs_ref checked;
      recount "after" claimed_after v.Analysis.Fixer.transformed;
      (if not v.Analysis.Fixer.engines_agree then
         let disagree side (m : Analysis.Fixer.metrics) =
           Printf.sprintf
             "%s: fast engine counts %d %s the fix, the independent count %d"
             func m.fs_fast side m.fs_ref
         in
         let open Analysis.Fixer in
         fail "fix/verified"
           (if v.before.fs_fast <> v.before.fs_ref then
              disagree "before" v.before
            else if v.after.fs_fast <> v.after.fs_ref then
              disagree "after" v.after
            else
              func
              ^ ": fast engine and independent count disagree on one nest, \
                 though their sums agree"));
      (* the reported removal must be what the before/after counts say
         (a verdict is only made when the before count is positive) *)
      let want =
        1.
        -. float_of_int v.Analysis.Fixer.after.Analysis.Fixer.fs_ref
           /. float_of_int v.Analysis.Fixer.before.Analysis.Fixer.fs_ref
      in
      if Float.abs (want -. v.Analysis.Fixer.removal) > 1e-9 then
        fail "fix/verified"
          (Printf.sprintf "%s: removal %.6f inconsistent with N_fs %d->%d"
             func v.Analysis.Fixer.removal
             v.Analysis.Fixer.before.Analysis.Fixer.fs_ref
             v.Analysis.Fixer.after.Analysis.Fixer.fs_ref);
      if not v.Analysis.Fixer.verified then
        promote
          (Printf.sprintf
             "fix underdelivers in %s: N_fs %d -> %d (%.1f%% removed), cost \
              %s"
             func v.Analysis.Fixer.before.Analysis.Fixer.fs_ref
             v.Analysis.Fixer.after.Analysis.Fixer.fs_ref
             (100. *. v.Analysis.Fixer.removal)
             (match v.Analysis.Fixer.cost_ratio with
             | Some r -> Printf.sprintf "%.2fx" r
             | None -> "n/a"))

let has_unknown_finding (report : Analysis.Diag.report) =
  List.exists
    (fun (f : Analysis.Diag.finding) -> f.rule = "analysis/unknown")
    report.findings

let outcome_of body =
  let exercised = ref [] in
  let mark c = if not (List.mem c !exercised) then exercised := c :: !exercised in
  let fail c d = raise (Fail (c, d)) in
  let promoted = ref None in
  let promote reason = if !promoted = None then promoted := Some reason in
  let failure =
    try
      body ~mark ~fail ~promote;
      None
    with
    | Fail (c, d) -> Some (c, d)
    | e -> Some ("oracle/exn", Printexc.to_string e)
  in
  { failure; exercised = List.rev !exercised; promote = !promoted }

let check_spec ?mutate ?(brute_budget = 300_000) (spec : Spec.t) =
  outcome_of (fun ~mark ~fail ~promote ->
      let src = Spec.to_source spec in
      let ast =
        match Minic.Parser.parse_program src with
        | a -> a
        | exception Minic.Parser.Error (m, l) ->
            fail "pipeline/parse" (Printf.sprintf "%s (line %d)" m l);
            assert false
      in
      mark "pipeline/parse";
      let want = Minic.Ast.erase_spans (Spec.to_ast spec) in
      if Minic.Ast.erase_spans ast <> want then
        fail "roundtrip/pretty"
          "pretty-printed program reparses to a different AST";
      mark "roundtrip/pretty";
      let checked =
        match Minic.Typecheck.check_program ast with
        | c -> c
        | exception Minic.Typecheck.Type_error m ->
            fail "pipeline/typecheck" m;
            assert false
      in
      mark "pipeline/typecheck";
      let threads = spec.Spec.threads in
      let report =
        lint_checks ~threads ~chunk:None
          ~fixits:(spec.Spec.sp_index mod 7 = 0)
          ~mark ~fail checked
      in
      let nonaffine =
        List.exists
          (fun (r : Spec.rref) -> r.r_sub.Spec.square)
          (Spec.all_refs spec)
      in
      let params = [ ("num_threads", threads) ] in
      let lowered = ref None in
      (match Loopir.Lower.lower_all checked ~func:"f" ~params with
      | exception Loopir.Lower.Lower_error m ->
          if not nonaffine then
            fail "pipeline/lower" ("unexpected lowering failure: " ^ m);
          (* lowering rejections must surface to the user as findings *)
          if not (has_unknown_finding report) then
            fail "lower/lint-unknown"
              "nonaffine nest produced no analysis/unknown finding";
          mark "lower/nonaffine"
      | [ nest ] when not nonaffine ->
          mark "pipeline/lower";
          lowered := Some nest;
          analyze_nest ~mutate ~threads ~chunk:None ~brute_budget
            ~sym_cap:(Spec.param_cap spec) ~mark ~fail nest checked
      | nests ->
          if nonaffine then
            fail "lower/nonaffine"
              "nonaffine subscript was lowered without error"
          else
            fail "pipeline/lower"
              (Printf.sprintf "expected one nest, found %d" (List.length nests)));
      (* a deterministic sliver of cases also closes the fix loop:
         materialize the advised rewrite and hold the verdict to the
         Fixer laws (round-trip, determinism, engine agreement) *)
      if (not nonaffine) && spec.Spec.sp_index mod 13 = 0 then
        fix_checks ~mutate ~threads ~func:"f" ~mark ~fail ~promote checked;
      (* a deterministic sliver of cases also runs end to end through the
         instrumented interpreter (crash-freedom, not value checking) *)
      if (not nonaffine) && spec.Spec.sp_index mod 61 = 0 then begin
        (match
           let it = Execsim.Interp.create ~threads checked in
           Execsim.Interp.exec it ~func:"f"
         with
        | () -> mark "execsim/run"
        | exception Execsim.Interp.Runtime_error m -> fail "execsim/run" m);
        (* and, when the nest is concrete, the reuse model's beyond-L1
           traffic must land within a loose band of the instrumented
           cache simulator's — a drift tripwire, not an accuracy gate *)
        match !lowered with
        | Some nest
          when Analysis.Depend.free_params ~params nest = [] -> (
            let arch = Archspec.Arch.small_test_machine in
            match
              Analysis.Reuse.predict ~arch ~threads
                ~env:(fun v -> List.assoc_opt v params)
                nest
            with
            | exception _ -> ()
            | p -> (
                let coherence =
                  Execsim.Run.coherence ~arch ~threads checked
                in
                let sink =
                  {
                    Execsim.Interp.mem_access =
                      (fun ~tid ~addr ~size ~write ->
                        ignore
                          (Cachesim.Coherence.access_latency coherence
                             ~core:tid ~addr ~size ~write));
                    cpu = (fun ~tid:_ _ -> ());
                    region_begin = (fun ~threads:_ -> ());
                    region_end = (fun ~chunks_per_thread:_ -> ());
                  }
                in
                match
                  let it =
                    Execsim.Interp.create ~threads ~sink checked
                  in
                  Execsim.Interp.exec it ~func:"f"
                with
                | exception Execsim.Interp.Runtime_error _ -> ()
                | () ->
                    let st =
                      Cachesim.Coherence.aggregate_stats coherence
                    in
                    let sim_acc =
                      float_of_int (Cachesim.Stats.accesses st)
                    in
                    let sim_beyond =
                      sim_acc
                      -. float_of_int st.Cachesim.Stats.l1_hits
                    in
                    let pred_beyond =
                      p.Analysis.Reuse.accesses
                      -. p.Analysis.Reuse.l1_hits
                    in
                    mark "reuse/sim";
                    (* the interpreter also counts scalar-global traffic
                       the nest IR does not model, hence one-sided on
                       accesses and a factor-8 + slack band on misses *)
                    if
                      p.Analysis.Reuse.accesses > sim_acc +. 0.5
                      || pred_beyond > (8. *. sim_beyond) +. 256.
                      || sim_beyond > (8. *. pred_beyond) +. 256.
                    then
                      fail "reuse/sim"
                        (Printf.sprintf
                           "predicted %.0f accesses / %.0f beyond-L1 vs \
                            simulated %.0f / %.0f"
                           p.Analysis.Reuse.accesses pred_beyond sim_acc
                           sim_beyond)))
        | _ -> ()
      end)

let check_source ?mutate ?(brute_budget = 300_000) ~threads ~chunk src =
  outcome_of (fun ~mark ~fail ~promote ->
      let ast =
        match Minic.Parser.parse_program src with
        | a -> a
        | exception Minic.Parser.Error (m, l) ->
            fail "pipeline/parse" (Printf.sprintf "%s (line %d)" m l);
            assert false
      in
      mark "pipeline/parse";
      (* printer/parser fixpoint: pretty output must reparse to the
         same span-erased AST *)
      (match Minic.Parser.parse_program (Minic.Pretty.program_to_string ast) with
      | ast2 ->
          if Minic.Ast.erase_spans ast2 <> Minic.Ast.erase_spans ast then
            fail "roundtrip/pretty"
              "pretty-printed program reparses to a different AST"
      | exception Minic.Parser.Error (m, l) ->
          fail "roundtrip/pretty"
            (Printf.sprintf "pretty output does not reparse: %s (line %d)" m l));
      mark "roundtrip/pretty";
      let checked =
        match Minic.Typecheck.check_program ast with
        | c -> c
        | exception Minic.Typecheck.Type_error m ->
            fail "pipeline/typecheck" m;
            assert false
      in
      mark "pipeline/typecheck";
      let report = lint_checks ~threads ~chunk ~fixits:true ~mark ~fail checked in
      let funcs = Loopir.Lower.find_parallel_functions ast in
      let params = [ ("num_threads", threads) ] in
      List.iter
        (fun func ->
          match Loopir.Lower.lower_all checked ~func ~params with
          | exception Loopir.Lower.Lower_error _ ->
              if not (has_unknown_finding report) then
                fail "lower/lint-unknown"
                  (func ^ ": lowering failed with no analysis/unknown finding");
              mark "lower/nonaffine"
          | nests ->
              mark "pipeline/lower";
              List.iter
                (fun nest ->
                  analyze_nest ~mutate ~threads ~chunk ~brute_budget
                    ~sym_cap:16 ~mark ~fail nest checked)
                nests)
        funcs;
      (* corpus files are few: always interpret them and always close
         the fix loop *)
      List.iter
        (fun func ->
          fix_checks ~mutate ~threads ~func ~mark ~fail ~promote checked;
          match
            let it = Execsim.Interp.create ~threads checked in
            Execsim.Interp.exec it ~func
          with
          | () -> mark "execsim/run"
          | exception Execsim.Interp.Runtime_error m ->
              fail "execsim/run" (func ^ ": " ^ m))
        funcs)

let scan_header src =
  let threads = ref 4 and chunk = ref None in
  let strip_prefix p l =
    if String.length l >= String.length p && String.sub l 0 (String.length p) = p
    then Some (String.trim (String.sub l (String.length p) (String.length l - String.length p)))
    else None
  in
  List.iter
    (fun l ->
      let l = String.trim l in
      match strip_prefix "* threads:" l with
      | Some v -> (
          match int_of_string_opt v with Some t -> threads := t | None -> ())
      | None -> (
          match strip_prefix "* chunk:" l with
          | Some "pragma" -> chunk := None
          | Some v -> (
              match int_of_string_opt v with
              | Some c -> chunk := Some c
              | None -> ())
          | None -> ()))
    (String.split_on_char '\n' src);
  (!threads, !chunk)
