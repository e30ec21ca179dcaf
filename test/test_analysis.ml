(* The closed-form FS estimator's contract is exactness: whenever it
   answers [Exact n], [n] equals what [Model.run] counts.  This suite
   enforces the contract on every registry kernel across several
   (threads, chunk) configurations, pins which kernels must stay in
   closed form, exercises the hold/reset cross-region regimes on sized-
   down kernels, and property-checks the estimator and the dependence
   analyzer on random small nests against brute force. *)

open Fsmodel

let check = Alcotest.check

let parse src = Minic.Typecheck.check_program (Minic.Parser.parse_program src)

let lower ~threads checked ~func =
  Loopir.Lower.lower checked ~func ~params:[ ("num_threads", threads) ]

let estimate_and_run cfg ~nest ~checked =
  let est = Analysis.Closed_form.estimate cfg ~nest ~checked in
  let eng = Model.run cfg ~nest ~checked in
  (est, eng.Model.fs_cases)

let assert_exact ~what cfg ~nest ~checked =
  match estimate_and_run cfg ~nest ~checked with
  | Analysis.Closed_form.Exact { fs_cases; _ }, engine ->
      check Alcotest.int (what ^ ": fs = engine") engine fs_cases
  | Analysis.Closed_form.Inapplicable reason, _ ->
      Alcotest.failf "%s: expected closed form, got fallback: %s" what reason

let assert_consistent ~what cfg ~nest ~checked =
  match estimate_and_run cfg ~nest ~checked with
  | Analysis.Closed_form.Exact { fs_cases; _ }, engine ->
      check Alcotest.int (what ^ ": fs = engine") engine fs_cases
  | Analysis.Closed_form.Inapplicable _, _ -> ()

(* ------------------------------------------------------------------ *)
(* registry kernels                                                    *)
(* ------------------------------------------------------------------ *)

(* which kernels must stay in closed form at their pragma schedule: the
   acceptance bar for the estimator (transpose writes along columns, so
   its write offsets depend on the inner variable by design) *)
let pinned =
  [
    ("saxpy", true);
    ("stencil1d", true);
    ("linear_regression", true);
    ("matvec", true);
    ("dft", true);
    ("heat", true);
    ("transpose", false);
  ]

let test_registry_pinned_applicability () =
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      let name = kernel.Kernels.Kernel.name in
      let expect_exact = List.assoc name pinned in
      let checked = Kernels.Kernel.parse kernel in
      let nest = lower ~threads:8 checked ~func:kernel.Kernels.Kernel.func in
      let cfg = Model.default_config ~threads:8 () in
      if expect_exact then assert_exact ~what:name cfg ~nest ~checked
      else
        match Analysis.Closed_form.estimate cfg ~nest ~checked with
        | Analysis.Closed_form.Inapplicable _ -> ()
        | Analysis.Closed_form.Exact _ ->
            Alcotest.failf "%s: expected fallback" name)
    (Kernels.Registry.all ())

let test_registry_chunk_sweep () =
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      let checked = Kernels.Kernel.parse kernel in
      List.iter
        (fun (threads, chunk) ->
          let nest =
            lower ~threads checked ~func:kernel.Kernels.Kernel.func
          in
          let cfg =
            { (Model.default_config ~threads ()) with Model.chunk }
          in
          let what =
            Printf.sprintf "%s t=%d c=%s" kernel.Kernels.Kernel.name threads
              (match chunk with Some c -> string_of_int c | None -> "pragma")
          in
          assert_consistent ~what cfg ~nest ~checked)
        [
          (2, None);
          (8, Some kernel.Kernels.Kernel.nfs_chunk);
          (5, Some 3);
          (3, Some 1);
        ])
    (Kernels.Registry.all ())

(* ------------------------------------------------------------------ *)
(* cross-region regimes on sized-down kernels                          *)
(* ------------------------------------------------------------------ *)

(* small stencil: each thread's per-region footprint (~65 lines) fits in
   the L1 stack, so nothing is ever evicted — the hold regime *)
let test_hold_regime () =
  let kernel = Kernels.Stencil1d.kernel ~n:258 ~steps:4 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest = lower ~threads:8 checked ~func:"stencil" in
  assert_exact ~what:"stencil n=258 (hold)"
    (Model.default_config ~threads:8 ())
    ~nest ~checked

(* full-size stencil floods the stack every region — the reset regime *)
let test_reset_regime () =
  let kernel = Kernels.Stencil1d.kernel () in
  let checked = Kernels.Kernel.parse kernel in
  let nest = lower ~threads:8 checked ~func:"stencil" in
  assert_exact ~what:"stencil (reset)"
    (Model.default_config ~threads:8 ())
    ~nest ~checked

(* an unbounded stack can never evict either: hold, at any size *)
let test_unbounded_stack_is_hold () =
  let kernel = Kernels.Dft.kernel ~freqs:5 ~samples:1920 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest = lower ~threads:6 checked ~func:"dft" in
  let cfg =
    { (Model.default_config ~threads:6 ()) with Model.stack = Model.Unbounded }
  in
  assert_exact ~what:"dft unbounded" cfg ~nest ~checked

(* An uncertain certificate makes the estimator refuse rather than
   guess, and say why: the reason reaches users through [fs_note] and the
   lint text, so it is pinned verbatim. *)
let assert_falls_back ~what ~reason ?chunk ~stack kernel ~threads =
  let checked = Kernels.Kernel.parse kernel in
  let nest = lower ~threads checked ~func:kernel.Kernels.Kernel.func in
  let cfg =
    { (Model.default_config ~threads ()) with Model.stack; chunk }
  in
  match Analysis.Closed_form.estimate cfg ~nest ~checked with
  | Analysis.Closed_form.Inapplicable r -> check Alcotest.string what reason r
  | Analysis.Closed_form.Exact _ -> Alcotest.failf "%s: expected fallback" what

(* a tiny stack makes holder residency uncertain at the first gap; a
   64-line stack fails only at a gap wider than those certified before *)
let test_tiny_stack_falls_back () =
  assert_falls_back ~what:"saxpy, 4-line stack"
    ~reason:"line residency across a 1-step gap is uncertain"
    ~stack:(Model.Lines 4)
    (Kernels.Saxpy.kernel ~n:768 ())
    ~threads:8;
  assert_falls_back ~what:"heat chunk 16, 64-line stack"
    ~reason:"line residency across a 9-step gap is uncertain" ~chunk:16
    ~stack:(Model.Lines 64) (Kernels.Heat.kernel ()) ~threads:8

(* identical regions whose per-thread footprints lie on both sides of
   the stack capacity: neither the reset nor the hold certificate *)
let test_straddle_falls_back () =
  assert_falls_back ~what:"stencil n=258, 64-line stack"
    ~reason:
      "cross-region cache residency is uncertain (per-thread footprint \
       straddles the stack capacity)"
    ~stack:(Model.Lines 64)
    (Kernels.Stencil1d.kernel ~n:258 ~steps:4 ())
    ~threads:8

let test_invalidate_ablation_falls_back () =
  let kernel = Kernels.Saxpy.kernel ~n:768 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest = lower ~threads:8 checked ~func:"saxpy" in
  let cfg =
    {
      (Model.default_config ~threads:8 ()) with
      Model.invalidate_on_write = true;
    }
  in
  match Analysis.Closed_form.estimate cfg ~nest ~checked with
  | Analysis.Closed_form.Inapplicable _ -> ()
  | Analysis.Closed_form.Exact _ -> Alcotest.fail "expected fallback"

(* ------------------------------------------------------------------ *)
(* random small nests: estimator vs engine                             *)
(* ------------------------------------------------------------------ *)

type gen_nest = {
  n : int;  (** parallel trip count *)
  m : int;  (** inner trip count; 0 = no inner loop *)
  outer : int;  (** sequential outer trip count; 0 = no outer loop *)
  chunk : int;
  threads : int;
  stmt : int;  (** statement variant *)
  stack : int option;  (** stack capacity in lines; [None] = the L1 *)
}

let source_of g =
  let body =
    match g.stmt with
    | 0 -> "a[i] = 1.0;"
    | 1 -> "a[i] = a[i] + b[i];"
    | 2 -> "a[2 * i] = b[i] + 1.0;"
    | 3 -> "a[i + 1] = b[i] + 2.0;"
    | 4 -> if g.m > 0 then "a[i] = a[i] + b[j];" else "a[i] = b[i];"
    | _ -> if g.m > 0 then "c[4 * i + j] = a[i] + b[j];" else "c[i] = a[i];"
  in
  let inner =
    if g.m > 0 then
      Printf.sprintf "for (int j = 0; j < %d; j++) { %s }" g.m body
    else body
  in
  let par =
    Printf.sprintf
      "#pragma omp parallel for schedule(static,%d)\n\
       for (int i = 0; i < %d; i++) { %s }"
      g.chunk g.n inner
  in
  let nest =
    if g.outer > 0 then
      Printf.sprintf "for (int t = 0; t < %d; t++) { %s }" g.outer par
    else par
  in
  Printf.sprintf
    "double a[128];\ndouble b[128];\ndouble c[256];\nvoid f(void) {\n%s }" nest

(* the L1 stack never evicts on these tiny nests, so small stacks are
   drawn as well: they exercise the residency certificates, which must
   refuse whenever an eviction could change the count *)
let gen_nest_gen =
  QCheck2.Gen.(
    map
      (fun ((n, m, outer), (chunk, threads, stmt), stack) ->
        { n; m; outer; chunk; threads; stmt; stack })
      (tup3
         (tup3 (int_range 1 24) (int_range 0 5) (int_range 0 4))
         (tup3 (int_range 1 4) (int_range 1 9) (int_range 0 5))
         (opt (int_range 2 16))))

let print_nest g =
  Printf.sprintf "%s\n(stack %s)" (source_of g)
    (match g.stack with Some c -> string_of_int c ^ " lines" | None -> "L1")

let prop_estimator_oracle =
  QCheck2.Test.make ~name:"closed form = engine on random small nests"
    ~count:300 ~print:print_nest gen_nest_gen (fun g ->
      let checked = parse (source_of g) in
      let nest = lower ~threads:g.threads checked ~func:"f" in
      let cfg = Model.default_config ~threads:g.threads () in
      let cfg =
        match g.stack with
        | Some c -> { cfg with Model.stack = Model.Lines c }
        | None -> cfg
      in
      match Analysis.Closed_form.estimate cfg ~nest ~checked with
      | Analysis.Closed_form.Inapplicable _ -> true
      | Analysis.Closed_form.Exact { fs_cases; _ } ->
          fs_cases = (Model.run cfg ~nest ~checked).Model.fs_cases)

(* the random property must not pass vacuously: the estimator handles
   the whole single-statement grid below in closed form *)
let test_estimator_applicability_floor () =
  let hits = ref 0 and total = ref 0 in
  List.iter
    (fun stmt ->
      List.iter
        (fun threads ->
          let g =
            { n = 16; m = 2; outer = 2; chunk = 1; threads; stmt; stack = None }
          in
          let checked = parse (source_of g) in
          let nest = lower ~threads checked ~func:"f" in
          let cfg = Model.default_config ~threads () in
          incr total;
          match Analysis.Closed_form.estimate cfg ~nest ~checked with
          | Analysis.Closed_form.Exact _ -> incr hits
          | Analysis.Closed_form.Inapplicable _ -> ())
        [ 1; 3; 8 ])
    (* stmt 4 reads b[j] through the inner variable, which is outside
       the cross-region certificates — keep it to the random property *)
    [ 0; 1; 2; 3 ];
  check Alcotest.int "all grid points in closed form" !total !hits

(* ------------------------------------------------------------------ *)
(* dependence analysis vs brute force                                  *)
(* ------------------------------------------------------------------ *)

type gen_dep = {
  dn : int;  (** parallel trip count *)
  dm : int;  (** inner trip count; 0 = no inner loop *)
  c1 : int;
  k1 : int;
  c2 : int;
  k2 : int;
  j_in_b : bool;  (** second subscript also uses the inner variable *)
}

let dep_source_of g =
  let sub coeff off use_j =
    let base =
      if coeff = 0 then "0" else Printf.sprintf "%d * i" coeff
    in
    let base = if use_j && g.dm > 0 then base ^ " + j" else base in
    if off = 0 then base else Printf.sprintf "%s + %d" base off
  in
  let body =
    Printf.sprintf "a[%s] = a[%s] + 1.0;" (sub g.c1 g.k1 false)
      (sub g.c2 g.k2 g.j_in_b)
  in
  let inner =
    if g.dm > 0 then
      Printf.sprintf "for (int j = 0; j < %d; j++) { %s }" g.dm body
    else body
  in
  Printf.sprintf
    "double a[512];\nvoid f(void) {\n\
     #pragma omp parallel for schedule(static,1)\n\
     for (int i = 0; i < %d; i++) { %s } }"
    g.dn inner

let gen_dep_gen =
  QCheck2.Gen.(
    map
      (fun ((dn, dm), (c1, k1), (c2, k2), j_in_b) ->
        { dn; dm; c1; k1; c2; k2; j_in_b })
      (tup4
         (tup2 (int_range 2 12) (int_range 0 4))
         (tup2 (int_range 0 3) (int_range 0 40))
         (tup2 (int_range 0 3) (int_range 0 40))
         bool))

(* brute force over all pairs of distinct parallel iterations: do the two
   references ever overlap in bytes, or share a cache line? *)
let dep_oracle (nest : Loopir.Loop_nest.t) (a : Loopir.Array_ref.t)
    (b : Loopir.Array_ref.t) ~n ~m =
  let fdiv x y = if x >= 0 then x / y else -(((-x) + y - 1) / y) in
  let eval_off (r : Loopir.Array_ref.t) ~i ~j =
    Loopir.Affine.eval
      (fun v ->
        if v = "i" then i
        else if v = "j" then j
        else raise Not_found)
      r.Loopir.Array_ref.offset
  in
  ignore nest;
  let bytes = ref false and line = ref false in
  let inner = if m > 0 then m else 1 in
  for i1 = 0 to n - 1 do
    for i2 = 0 to n - 1 do
      if i1 <> i2 then
        for j1 = 0 to inner - 1 do
          for j2 = 0 to inner - 1 do
            let oa = eval_off a ~i:i1 ~j:j1
            and ob = eval_off b ~i:i2 ~j:j2 in
            let ea = oa + a.Loopir.Array_ref.size_bytes - 1
            and eb = ob + b.Loopir.Array_ref.size_bytes - 1 in
            if oa <= eb && ob <= ea then bytes := true;
            if fdiv oa 64 <= fdiv eb 64 && fdiv ob 64 <= fdiv ea 64 then
              line := true
          done
        done
    done
  done;
  (!bytes, !line)

let prop_depend_oracle =
  QCheck2.Test.make ~name:"dependence verdicts vs brute force" ~count:200
    ~print:dep_source_of gen_dep_gen (fun g ->
      let checked = parse (dep_source_of g) in
      let nest =
        Loopir.Lower.lower checked ~func:"f" ~params:[ ("num_threads", 4) ]
      in
      let pairs =
        Analysis.Depend.pairs ~line_bytes:64
          ~params:[ ("num_threads", 4) ]
          nest
      in
      List.for_all
        (fun (p : Analysis.Depend.pair) ->
          let bytes, line =
            dep_oracle nest p.Analysis.Depend.a p.Analysis.Depend.b ~n:g.dn
              ~m:g.dm
          in
          match p.Analysis.Depend.verdict with
          | Analysis.Depend.Independent -> (not bytes) && not line
          | Analysis.Depend.Line_conflict -> not bytes
          | Analysis.Depend.Loop_carried | Analysis.Depend.Unknown _ -> true)
        pairs)

(* pin the headline verdicts the linter builds on *)
let test_depend_verdict_examples () =
  let verdicts src =
    let checked = parse src in
    let nest =
      Loopir.Lower.lower checked ~func:"f" ~params:[ ("num_threads", 8) ]
    in
    Analysis.Depend.pairs ~line_bytes:64 ~params:[ ("num_threads", 8) ] nest
  in
  let has v ps =
    List.exists (fun (p : Analysis.Depend.pair) -> p.Analysis.Depend.verdict = v) ps
  in
  (* racy stencil: v[i] = v[i-1] + v[i+1] carries a dependence *)
  let racy =
    verdicts
      "double v[256];\nvoid f(void) {\n\
       #pragma omp parallel for schedule(static,1)\n\
       for (int i = 1; i < 255; i++) { v[i] = v[i - 1] + v[i + 1]; } }"
  in
  check Alcotest.bool "racy stencil: loop-carried" true
    (has Analysis.Depend.Loop_carried racy);
  (* disjoint writes on the same line: the false-sharing shape *)
  let fs =
    verdicts
      "double y[256];\ndouble x[256];\nvoid f(void) {\n\
       #pragma omp parallel for schedule(static,1)\n\
       for (int i = 0; i < 256; i++) { y[i] = 2.5 * x[i]; } }"
  in
  check Alcotest.bool "saxpy shape: line conflict" true
    (has Analysis.Depend.Line_conflict fs);
  check Alcotest.bool "saxpy shape: no race" false
    (has Analysis.Depend.Loop_carried fs);
  (* a non-affine inner bound degrades to unknown, not to a wrong
     verdict (non-affine subscripts are rejected one layer down, by
     Lower, and surface as unknown findings in the linter) *)
  let unknown =
    verdicts
      "double a[600];\nvoid f(void) {\n\
       #pragma omp parallel for schedule(static,1)\n\
       for (int i = 0; i < 24; i++) {\n\
       for (int j = 0; j < i * i; j++) { a[i] = a[i] + 1.0; } } }"
  in
  check Alcotest.bool "non-affine: unknown" true
    (List.exists
       (fun (p : Analysis.Depend.pair) ->
         match p.Analysis.Depend.verdict with
         | Analysis.Depend.Unknown _ -> true
         | _ -> false)
       unknown)

(* ------------------------------------------------------------------ *)
(* exact integer feasibility (the Omega test)                          *)
(* ------------------------------------------------------------------ *)

(* c + k1*v1 + ... as an affine row *)
let af terms c =
  List.fold_left
    (fun acc (k, v) ->
      Loopir.Affine.add acc (Loopir.Affine.scale k (Loopir.Affine.var v)))
    (Loopir.Affine.const c) terms

let exact_model_holds (s : Analysis.Exact.sys) model =
  let env v = match List.assoc_opt v model with Some n -> n | None -> 0 in
  List.for_all (fun e -> Loopir.Affine.eval env e = 0) s.Analysis.Exact.eqs
  && List.for_all (fun g -> Loopir.Affine.eval env g >= 0) s.Analysis.Exact.geqs

(* hand-picked systems covering each tightening: GCD normalization,
   equality elimination, dark vs real shadow, and splinters *)
let test_exact_solver_examples () =
  let solve s = Analysis.Exact.solve (Analysis.Exact.budget 1_000_000) s in
  let sat name s =
    match solve s with
    | None -> Alcotest.failf "%s: expected satisfiable" name
    | Some m ->
        check Alcotest.bool (name ^ ": model holds") true (exact_model_holds s m)
  and unsat name s =
    match solve s with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: expected unsatisfiable" name
  in
  (* GCD: 6x + 10y = 1 has no integer solution, 6x + 10y = 2 does *)
  unsat "gcd" { Analysis.Exact.eqs = [ af [ (6, "x"); (10, "y") ] (-1) ]; geqs = [] };
  sat "gcd ok" { Analysis.Exact.eqs = [ af [ (6, "x"); (10, "y") ] (-2) ]; geqs = [] };
  (* no integer in the rational interval [3/11, 8/11] *)
  unsat "empty interval"
    { Analysis.Exact.eqs = []; geqs = [ af [ (11, "x") ] (-3); af [ (-11, "x") ] 8 ] };
  sat "wide interval"
    { Analysis.Exact.eqs = []; geqs = [ af [ (11, "x") ] (-3); af [ (-11, "x") ] 19 ] };
  (* Pugh's running example: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4
     has no integer solution though the real shadow is non-empty *)
  unsat "pugh dark shadow"
    {
      Analysis.Exact.eqs = [];
      geqs =
        [
          af [ (11, "x"); (13, "y") ] (-27);
          af [ (-11, "x"); (-13, "y") ] 45;
          af [ (7, "x"); (-9, "y") ] 10;
          af [ (-7, "x"); (9, "y") ] 4;
        ];
    };
  (* same shape, relaxed enough to admit (3, 1) *)
  sat "pugh relaxed"
    {
      Analysis.Exact.eqs = [];
      geqs =
        [
          af [ (11, "x"); (13, "y") ] (-27);
          af [ (-11, "x"); (-13, "y") ] 46;
          af [ (7, "x"); (-9, "y") ] 10;
          af [ (-7, "x"); (9, "y") ] 12;
        ];
    };
  (* coupled equalities forcing mod-hat elimination *)
  sat "mod-hat"
    {
      Analysis.Exact.eqs = [ af [ (7, "x"); (12, "y"); (31, "z") ] (-50) ];
      geqs = [ af [ (1, "x") ] 0; af [ (1, "y") ] 0; af [ (1, "z") ] 0 ];
    };
  unsat "coupled parity"
    {
      Analysis.Exact.eqs = [ af [ (2, "x"); (-2, "y") ] (-1) ];
      geqs = [];
    }

(* the solver against brute force over a small box: both the decision
   and, when satisfiable, the returned model *)
let prop_exact_vs_brute =
  let gen =
    QCheck2.Gen.(
      let row =
        map
          (fun (c, k1, k2, k3) -> (c, k1, k2, k3))
          (tup4 (int_range (-10) 10) (int_range (-4) 4) (int_range (-4) 4)
             (int_range (-4) 4))
      in
      tup2 (list_size (int_range 0 1) row) (list_size (int_range 1 4) row))
  in
  let print (eqs, geqs) =
    let row (c, k1, k2, k3) = Printf.sprintf "%d + %dx + %dy + %dz" c k1 k2 k3 in
    Printf.sprintf "eqs: %s; geqs: %s"
      (String.concat ", " (List.map row eqs))
      (String.concat ", " (List.map row geqs))
  in
  QCheck2.Test.make ~name:"exact solver = brute force on boxed systems"
    ~count:300 ~print gen (fun (eqs, geqs) ->
      let mk (c, k1, k2, k3) = af [ (k1, "x"); (k2, "y"); (k3, "z") ] c in
      let box =
        List.concat_map
          (fun v -> [ af [ (1, v) ] 5; af [ (-1, v) ] 5 ])
          [ "x"; "y"; "z" ]
      in
      let sys =
        {
          Analysis.Exact.eqs = List.map mk eqs;
          geqs = List.map mk geqs @ box;
        }
      in
      let brute = ref false in
      for x = -5 to 5 do
        for y = -5 to 5 do
          for z = -5 to 5 do
            let env = function "x" -> x | "y" -> y | _ -> z in
            if
              List.for_all (fun e -> Loopir.Affine.eval env e = 0)
                sys.Analysis.Exact.eqs
              && List.for_all (fun g -> Loopir.Affine.eval env g >= 0)
                   sys.Analysis.Exact.geqs
            then brute := true
          done
        done
      done;
      match Analysis.Exact.solve (Analysis.Exact.budget 2_000_000) sys with
      | None -> not !brute
      | Some m -> !brute && exact_model_holds sys m)

(* Acceptance gate for the exact tier: the default two-tier analysis
   leaves no affine pair of any registry kernel undecided — no Unknown
   verdicts, no budget fallbacks — and every must-conflict carries a
   witness that replays: distinct parallel iterations whose evaluated
   offsets exhibit exactly the claimed overlap. *)
let test_registry_exact_gate () =
  let fdiv x y = if x >= 0 then x / y else -(((-x) + y - 1) / y) in
  List.iter
    (fun kernel ->
      let name = kernel.Kernels.Kernel.name in
      let checked = Kernels.Kernel.parse kernel in
      let nest = lower ~threads:8 checked ~func:kernel.Kernels.Kernel.func in
      let pv = (Loopir.Loop_nest.parallel_loop nest).Loopir.Loop_nest.var in
      let pairs =
        Analysis.Depend.pairs ~line_bytes:64
          ~params:[ ("num_threads", 8) ]
          nest
      in
      List.iter
        (fun (p : Analysis.Depend.pair) ->
          let ev = p.Analysis.Depend.ev in
          (match p.Analysis.Depend.verdict with
          | Analysis.Depend.Unknown r ->
              Alcotest.failf "%s: unknown affine pair (%s)" name r
          | _ -> ());
          (match ev.Analysis.Depend.ev_backend with
          | Analysis.Depend.Fallback r ->
              Alcotest.failf "%s: exact tier fell back (%s)" name r
          | _ -> ());
          match (p.Analysis.Depend.verdict, ev.Analysis.Depend.ev_witness) with
          | (Analysis.Depend.Loop_carried | Analysis.Depend.Line_conflict), None
            when ev.Analysis.Depend.ev_must ->
              Alcotest.failf "%s: must-conflict without a witness" name
          | v, Some w ->
              let env side x =
                match List.assoc_opt x side with
                | Some n -> n
                | None -> (
                    match List.assoc_opt x w.Analysis.Depend.w_params with
                    | Some n -> n
                    | None -> List.assoc x [ ("num_threads", 8) ])
              in
              if
                List.assoc_opt pv w.Analysis.Depend.w_a
                = List.assoc_opt pv w.Analysis.Depend.w_b
              then
                Alcotest.failf "%s: witness does not separate %s" name pv;
              let offset side (r : Loopir.Array_ref.t) =
                Loopir.Affine.eval (env side) r.Loopir.Array_ref.offset
              in
              let oa = offset w.Analysis.Depend.w_a p.Analysis.Depend.a
              and ob = offset w.Analysis.Depend.w_b p.Analysis.Depend.b in
              let ea = oa + p.Analysis.Depend.a.Loopir.Array_ref.size_bytes - 1
              and eb =
                ob + p.Analysis.Depend.b.Loopir.Array_ref.size_bytes - 1
              in
              let bytes = oa <= eb && ob <= ea in
              let line =
                fdiv oa 64 <= fdiv eb 64 && fdiv ob 64 <= fdiv ea 64
              in
              let ok =
                match v with
                | Analysis.Depend.Loop_carried -> bytes
                | Analysis.Depend.Line_conflict -> line && not bytes
                | _ -> false
              in
              if not ok then
                Alcotest.failf "%s: witness does not replay (%s)" name
                  (Analysis.Depend.witness_to_string w)
          | _ -> ())
        pairs)
    (Kernels.Registry.all ())

(* ------------------------------------------------------------------ *)
(* parametric (symbolic) analyses                                      *)
(* ------------------------------------------------------------------ *)

(* Acceptance bar for the parametric certificates: every registry
   kernel's size-free variant must produce a closed-form N_fs whose
   value at the kernel's concrete size equals the engine's count
   exactly. *)
let test_sym_kernels_exact () =
  List.iter
    (fun kernel ->
      let name = kernel.Kernels.Kernel.name in
      let p = Option.get kernel.Kernels.Kernel.parametric in
      let checked = Kernels.Kernel.parse_parametric p in
      let nest = lower ~threads:8 checked ~func:kernel.Kernels.Kernel.func in
      let cfg = Model.default_config ~threads:8 () in
      match
        Analysis.Closed_form.estimate_sym cfg ~nest ~checked
          ~param:p.Kernels.Kernel.param ~hi:p.Kernels.Kernel.value ()
      with
      | Analysis.Closed_form.Sym_inapplicable reason ->
          Alcotest.failf "%s: expected a parametric certificate, got: %s" name
            reason
      | Analysis.Closed_form.Sym cert ->
          let cfg' =
            {
              cfg with
              Model.params =
                (p.Kernels.Kernel.param, p.Kernels.Kernel.value)
                :: cfg.Model.params;
            }
          in
          let engine = (Model.run cfg' ~nest ~checked).Model.fs_cases in
          check Alcotest.int
            (name ^ ": N_fs(" ^ string_of_int p.Kernels.Kernel.value
           ^ ") = engine")
            engine
            (Analysis.Closed_form.sym_eval cert p.Kernels.Kernel.value))
    (Kernels.Registry.all ())

(* Definitive verdicts with the size left free: no kernel's symbolic
   dependence tree may contain an Unknown or a spurious race region —
   in-bounds reasoning must rule the race branches out even for
   transpose's column writes. *)
let test_sym_kernels_definitive () =
  List.iter
    (fun kernel ->
      let name = kernel.Kernels.Kernel.name in
      let p = Option.get kernel.Kernels.Kernel.parametric in
      let checked = Kernels.Kernel.parse_parametric p in
      let nest = lower ~threads:8 checked ~func:kernel.Kernels.Kernel.func in
      let layout = Loopir.Layout.make checked in
      let extent_of base =
        match Loopir.Layout.size_of layout base with
        | s -> Some s
        | exception Not_found -> None
      in
      let spairs, ctx, free =
        Analysis.Depend.pairs_sym ~line_bytes:64
          ~params:[ ("num_threads", 8) ]
          ~extent_of nest
      in
      check
        Alcotest.(list string)
        (name ^ ": free parameters")
        [ p.Kernels.Kernel.param ] free;
      List.iter
        (fun (sp : Analysis.Depend.spair) ->
          List.iter
            (fun (_, (v, _)) ->
              match v with
              | Analysis.Depend.Unknown r ->
                  Alcotest.failf "%s: unknown region (%s)" name r
              | Analysis.Depend.Loop_carried ->
                  Alcotest.failf "%s: race region with size free" name
              | Analysis.Depend.Independent | Analysis.Depend.Line_conflict
                ->
                  ())
            (Analysis.Symbolic.paths ctx sp.Analysis.Depend.scases))
        spairs)
    (Kernels.Registry.all ())

(* parametric dependence: the verdict tree of a one-parameter nest,
   instantiated at many concrete trip counts, must stay sound against
   both the concrete analyzer and byte-level brute force *)
type gen_sdep = { sc1 : int; sk1 : int; sc2 : int; sk2 : int; schunk : int }

let sdep_source_of g =
  let sub coeff off =
    if coeff = 0 then string_of_int off
    else if off = 0 then Printf.sprintf "%d * i" coeff
    else Printf.sprintf "%d * i + %d" coeff off
  in
  Printf.sprintf
    "int n;\ndouble a[512];\nvoid f(void) {\n\
     #pragma omp parallel for schedule(static,%d)\n\
     for (int i = 0; i < n; i++) { a[%s] = a[%s] + 1.0; } }"
    g.schunk (sub g.sc1 g.sk1) (sub g.sc2 g.sk2)

let gen_sdep_gen =
  QCheck2.Gen.(
    map
      (fun ((sc1, sk1), (sc2, sk2), schunk) ->
        { sc1; sk1; sc2; sk2; schunk })
      (tup3
         (tup2 (int_range 0 3) (int_range 0 40))
         (tup2 (int_range 0 3) (int_range 0 40))
         (int_range 1 4)))

let prop_sym_depend_sound =
  (* 40 nest shapes x 8 instantiations = 320 parameter points *)
  QCheck2.Test.make ~name:"symbolic verdicts sound at every instantiation"
    ~count:40 ~print:sdep_source_of gen_sdep_gen (fun g ->
      let checked = parse (sdep_source_of g) in
      let nest =
        Loopir.Lower.lower checked ~func:"f" ~params:[ ("num_threads", 4) ]
      in
      let spairs, _ctx, free =
        Analysis.Depend.pairs_sym ~line_bytes:64
          ~params:[ ("num_threads", 4) ]
          nest
      in
      free = [ "n" ]
      && List.for_all
           (fun nv ->
             let cpairs =
               Analysis.Depend.pairs ~line_bytes:64
                 ~params:[ ("num_threads", 4); ("n", nv) ]
                 nest
             in
             List.length cpairs = List.length spairs
             && List.for_all2
                  (fun (cp : Analysis.Depend.pair)
                       (sp : Analysis.Depend.spair) ->
                    let sv, _ =
                      Analysis.Symbolic.eval
                        (fun _ -> nv)
                        sp.Analysis.Depend.scases
                    in
                    let bytes, line =
                      dep_oracle nest cp.Analysis.Depend.a
                        cp.Analysis.Depend.b ~n:nv ~m:0
                    in
                    match sv with
                    | Analysis.Depend.Independent ->
                        (* must-result: brute force may find nothing,
                           and the concrete analyzer must agree *)
                        (not bytes) && (not line)
                        && cp.Analysis.Depend.verdict
                           = Analysis.Depend.Independent
                    | Analysis.Depend.Line_conflict ->
                        (* the race exclusion is a must-result *)
                        (not bytes)
                        && cp.Analysis.Depend.verdict
                           <> Analysis.Depend.Loop_carried
                    | Analysis.Depend.Loop_carried
                    | Analysis.Depend.Unknown _ ->
                        true)
                  cpairs spairs)
           [ 0; 1; 2; 3; 7; 16; 33; 50 ])

(* parametric counts: certificates fitted on one-parameter nests must
   evaluate to the engine's count at every sampled trip count *)
type gen_scount = { gstride : int; goff : int; gchunk : int; gthreads : int }

let scount_source_of g =
  Printf.sprintf
    "int n;\ndouble a[4096];\ndouble b[4096];\nvoid f(void) {\n\
     #pragma omp parallel for schedule(static,%d)\n\
     for (int i = 0; i < n; i++) { a[%d * i + %d] = b[i] + 1.0; } }"
    g.gchunk g.gstride g.goff

let gen_scount_gen =
  QCheck2.Gen.(
    map
      (fun (gstride, goff, gchunk, gthreads) ->
        { gstride; goff; gchunk; gthreads })
      (tup4 (int_range 1 3) (int_range 0 8) (int_range 1 4) (int_range 2 8)))

let prop_sym_count_exact =
  (* 30 configurations x 9 instantiations = 270 parameter points *)
  QCheck2.Test.make ~name:"symbolic counts = engine at every instantiation"
    ~count:30 ~print:scount_source_of gen_scount_gen (fun g ->
      let checked = parse (scount_source_of g) in
      let nest =
        Loopir.Lower.lower checked ~func:"f"
          ~params:[ ("num_threads", g.gthreads) ]
      in
      let cfg = Model.default_config ~threads:g.gthreads () in
      let hi = (4096 - g.goff) / g.gstride in
      match
        Analysis.Closed_form.estimate_sym cfg ~nest ~checked ~param:"n" ~hi
          ()
      with
      | Analysis.Closed_form.Sym_inapplicable _ -> true
      | Analysis.Closed_form.Sym cert ->
          let lo = cert.Analysis.Closed_form.sc_base in
          List.for_all
            (fun frac ->
              let nv = lo + ((hi - lo) * frac / 8) in
              let cfg' =
                { cfg with Model.params = ("n", nv) :: cfg.Model.params }
              in
              Analysis.Closed_form.sym_eval cert nv
              = (Model.run cfg' ~nest ~checked).Model.fs_cases)
            [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])

(* the count property must not pass vacuously: the unit-stride shape
   fits a certificate at every chunk in the generator's range *)
let test_sym_count_applicability_floor () =
  List.iter
    (fun gchunk ->
      let g = { gstride = 1; goff = 0; gchunk; gthreads = 8 } in
      let checked = parse (scount_source_of g) in
      let nest =
        Loopir.Lower.lower checked ~func:"f" ~params:[ ("num_threads", 8) ]
      in
      let cfg = Model.default_config ~threads:8 () in
      match
        Analysis.Closed_form.estimate_sym cfg ~nest ~checked ~param:"n"
          ~hi:4096 ()
      with
      | Analysis.Closed_form.Sym _ -> ()
      | Analysis.Closed_form.Sym_inapplicable r ->
          Alcotest.failf "chunk %d: expected a certificate, got: %s" gchunk r)
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "analysis"
    [
      ( "closed_form",
        [
          Alcotest.test_case "registry pinned applicability" `Quick
            test_registry_pinned_applicability;
          Alcotest.test_case "registry chunk sweep" `Quick
            test_registry_chunk_sweep;
          Alcotest.test_case "hold regime" `Quick test_hold_regime;
          Alcotest.test_case "reset regime" `Quick test_reset_regime;
          Alcotest.test_case "unbounded stack" `Quick
            test_unbounded_stack_is_hold;
          Alcotest.test_case "tiny stack falls back" `Quick
            test_tiny_stack_falls_back;
          Alcotest.test_case "footprint straddle falls back" `Quick
            test_straddle_falls_back;
          Alcotest.test_case "invalidate ablation falls back" `Quick
            test_invalidate_ablation_falls_back;
          Alcotest.test_case "applicability floor" `Quick
            test_estimator_applicability_floor;
          QCheck_alcotest.to_alcotest prop_estimator_oracle;
        ] );
      ( "depend",
        [
          Alcotest.test_case "verdict examples" `Quick
            test_depend_verdict_examples;
          QCheck_alcotest.to_alcotest prop_depend_oracle;
        ] );
      ( "exact",
        [
          Alcotest.test_case "solver examples" `Quick
            test_exact_solver_examples;
          Alcotest.test_case "registry kernels: no unknown, witnesses replay"
            `Quick test_registry_exact_gate;
          QCheck_alcotest.to_alcotest prop_exact_vs_brute;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "registry kernels: parametric N_fs exact"
            `Quick test_sym_kernels_exact;
          Alcotest.test_case "registry kernels: definitive with size free"
            `Quick test_sym_kernels_definitive;
          Alcotest.test_case "count applicability floor" `Quick
            test_sym_count_applicability_floor;
          QCheck_alcotest.to_alcotest prop_sym_depend_sound;
          QCheck_alcotest.to_alcotest prop_sym_count_exact;
        ] );
    ]
