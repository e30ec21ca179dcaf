(* Tests for the static reuse-distance model: analytic hit/miss
   predictions validated against the execution-driven cache simulator on
   every registry kernel, conservation and Eq. 1 consistency, the
   zero-simulator guarantee of the [`Analytic] cost model, one
   closed-form evaluation per (config, nest), and the analytic overhead
   analogue. *)

let check = Alcotest.check
let fail = Alcotest.fail
let arch = Archspec.Arch.small_test_machine

let predict_kernel (k : Kernels.Kernel.t) ~threads =
  let checked = Kernels.Kernel.parse k in
  let params = [ ("num_threads", threads) ] in
  let nest =
    Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func ~params
  in
  Analysis.Reuse.predict ~arch ~threads
    ~env:(fun v -> List.assoc_opt v params)
    nest

(* ------------------------------------------------------------------ *)
(* Accuracy against the simulator                                      *)
(* ------------------------------------------------------------------ *)

(* Per-kernel relative tolerances, pinned from the current model: [main]
   bounds the l1/l2/l3/mem buckets, [c2c] the coherence-transfer bucket
   (the analytic interleaving window underestimates line-boundary
   straddles on the stencils, hence the looser bound).  Buckets the
   simulator puts fewer than [abs_floor] events in are compared
   absolutely against that floor instead — a relative bound on a
   near-empty bucket is noise.  Tightening a tolerance is progress;
   loosening one is a regression and must be justified. *)
let tolerances =
  [
    ("heat", (0.06, 0.65));
    ("dft", (0.01, 0.01));
    ("linear_regression", (0.05, 0.05));
    ("saxpy", (0.01, 0.01));
    ("stencil1d", (0.05, 0.55));
    ("matvec", (0.05, 0.05));
    ("transpose", (0.03, 0.05));
  ]

let abs_floor = 6000.

let check_bucket ~kernel ~threads ~name ~tol pred sim =
  if sim < abs_floor then (
    if Float.abs (pred -. sim) > abs_floor then
      fail
        (Printf.sprintf
           "%s t=%d %s: predicted %.0f vs simulated %.0f (near-empty \
            bucket drifted past %.0f)"
           kernel threads name pred sim abs_floor))
  else
    let rel = Float.abs (pred -. sim) /. sim in
    if rel > tol then
      fail
        (Printf.sprintf
           "%s t=%d %s: predicted %.0f vs simulated %.0f (%.1f%% off, \
            tolerance %.0f%%)"
           kernel threads name pred sim (100. *. rel) (100. *. tol))

let test_accuracy () =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let name = k.Kernels.Kernel.name in
      let tol_main, tol_c2c =
        match List.assoc_opt name tolerances with
        | Some t -> t
        | None ->
            fail
              (Printf.sprintf
                 "kernel %s has no pinned tolerance — add one" name)
      in
      List.iter
        (fun threads ->
          let p = predict_kernel k ~threads in
          let m = Execsim.Run.measure ~arch ~threads k in
          let s = m.Execsim.Run.stats in
          let open Analysis.Reuse in
          check (Alcotest.float 0.5)
            (Printf.sprintf "%s t=%d accesses" name threads)
            (float_of_int (Cachesim.Stats.accesses s))
            p.accesses;
          let b ~bname ~tol pred sim =
            check_bucket ~kernel:name ~threads ~name:bname ~tol pred
              (float_of_int sim)
          in
          b ~bname:"l1" ~tol:tol_main p.l1_hits s.Cachesim.Stats.l1_hits;
          b ~bname:"l2" ~tol:tol_main p.l2_hits s.Cachesim.Stats.l2_hits;
          b ~bname:"l3" ~tol:tol_main p.l3_hits s.Cachesim.Stats.l3_hits;
          b ~bname:"c2c" ~tol:tol_c2c p.c2c_transfers
            s.Cachesim.Stats.c2c_transfers;
          b ~bname:"mem" ~tol:tol_main p.mem_fetches
            s.Cachesim.Stats.mem_fetches)
        [ 2; 4 ])
    (Kernels.Registry.all ())

(* ------------------------------------------------------------------ *)
(* Conservation and internal consistency                               *)
(* ------------------------------------------------------------------ *)

let test_conservation () =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      List.iter
        (fun threads ->
          let p = predict_kernel k ~threads in
          let open Analysis.Reuse in
          let sum =
            p.l1_hits +. p.l2_hits +. p.l3_hits +. p.c2c_transfers
            +. p.mem_fetches
          in
          check (Alcotest.float 1e-3)
            (Printf.sprintf "%s t=%d conservation" k.Kernels.Kernel.name
               threads)
            p.accesses sum;
          if p.miss_rate < 0. || p.miss_rate > 1. then
            fail "miss rate out of [0,1]";
          if p.cache_cycles < 0. then fail "negative cache cycles")
        [ 1; 2; 4; 8 ])
    (Kernels.Registry.all ())

let analyze_kernel (k : Kernels.Kernel.t) ~threads =
  let checked = Kernels.Kernel.parse k in
  let params = [ ("num_threads", threads) ] in
  let nest =
    Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func ~params
  in
  Analysis.Reuse.analyze ~arch ~threads ~params ~checked nest

let test_eq1_consistency () =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let a = analyze_kernel k ~threads:4 in
      let e = a.Analysis.Reuse.eq1 in
      let open Costmodel.Total_cost in
      check (Alcotest.float 1.)
        (k.Kernels.Kernel.name ^ " eq1 terms sum to total")
        e.total
        (e.loop_c +. e.cache_c +. e.machine_c +. e.fs_c);
      let fsp = fs_percent ~fs:a.Analysis.Reuse.breakdown in
      if fsp < 0. || fsp > 100. then fail "fs percent out of [0,100]")
    (Kernels.Registry.all ())

(* ------------------------------------------------------------------ *)
(* Zero-simulator guarantee                                            *)
(* ------------------------------------------------------------------ *)

let test_zero_engine_calls () =
  List.iter
    (fun name ->
      match Kernels.Registry.find name with
      | None -> fail ("unknown kernel " ^ name)
      | Some k ->
          let checked = Kernels.Kernel.parse k in
          let before = Fsmodel.Model.run_count () in
          let opts =
            {
              Analysis.Lint.default_options with
              cost_model = `Analytic;
            }
          in
          let report =
            Analysis.Lint.run ~opts ~uri:("kernel:" ^ name) checked
          in
          check Alcotest.int
            (name ^ ": analytic lint never runs the engine")
            before
            (Fsmodel.Model.run_count ());
          ignore (Analysis.Diag.to_text report))
    [ "heat"; "saxpy"; "transpose" ]

let test_analytic_attaches_cost () =
  match Kernels.Registry.find "heat" with
  | None -> fail "no heat kernel"
  | Some k ->
      let checked = Kernels.Kernel.parse k in
      let opts =
        { Analysis.Lint.default_options with cost_model = `Analytic }
      in
      let report = Analysis.Lint.run ~opts ~uri:"kernel:heat" checked in
      let costed =
        List.filter
          (fun (f : Analysis.Diag.finding) -> f.cost <> None)
          report.Analysis.Diag.findings
      in
      if costed = [] then fail "no finding carries the analytic cost";
      List.iter
        (fun (f : Analysis.Diag.finding) ->
          match f.Analysis.Diag.cost with
          | None -> ()
          | Some c ->
              check Alcotest.string "model tag" "analytic"
                c.Analysis.Diag.cost_model;
              if c.Analysis.Diag.fs_percent <= 0. then
                fail "heat FS share should be positive")
        costed

(* ------------------------------------------------------------------ *)
(* One closed-form evaluation per (config, nest)                       *)
(* ------------------------------------------------------------------ *)

(* An analytic lint estimates each nest with a line conflict once: the
   FS count and the Eq. 1 context share the evaluation. *)
let test_one_estimate_per_nest () =
  let opts = { Analysis.Lint.default_options with cost_model = `Analytic } in
  let params = [ ("num_threads", opts.Analysis.Lint.threads) ] in
  let line_bytes = Archspec.Arch.line_bytes opts.Analysis.Lint.arch in
  let total =
    List.fold_left
      (fun total (k : Kernels.Kernel.t) ->
        let name = k.Kernels.Kernel.name in
        let checked = Kernels.Kernel.parse k in
        let conflicting =
          List.concat_map
            (fun func -> Loopir.Lower.lower_all checked ~func ~params)
            (Loopir.Lower.find_parallel_functions
               checked.Minic.Typecheck.prog)
          |> List.filter (fun nest ->
                 List.exists
                   (fun (p : Analysis.Depend.pair) ->
                     p.Analysis.Depend.verdict = Analysis.Depend.Line_conflict)
                   (Analysis.Depend.pairs ~line_bytes ~params nest))
          |> List.length
        in
        let before = Analysis.Closed_form.estimate_count () in
        ignore (Analysis.Lint.run ~opts ~uri:("kernel:" ^ name) checked);
        check Alcotest.int
          (name ^ ": one closed-form evaluation per conflicting nest")
          conflicting
          (Analysis.Closed_form.estimate_count () - before);
        total + conflicting)
      0 (Kernels.Registry.all ())
  in
  if total = 0 then fail "no registry nest has a line conflict"

(* The caller's estimate changes nothing: [analyze ~closed] equals a
   fresh [analyze], and [overhead_or_analyze] equals [overhead] followed
   by [analyze] at the FS-prone chunk when it declines. *)
let test_shared_estimate_same_result () =
  List.iter
    (fun arch ->
      List.iter
        (fun (k : Kernels.Kernel.t) ->
          let name = k.Kernels.Kernel.name and threads = 4 in
          let checked = Kernels.Kernel.parse k in
          let params = [ ("num_threads", threads) ] in
          let nest =
            Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func ~params
          in
          List.iter
            (fun chunk ->
              let cfg =
                { (Fsmodel.Model.default_config ~arch ~threads ()) with
                  Fsmodel.Model.chunk; params }
              in
              let closed = Analysis.Closed_form.estimate cfg ~nest ~checked in
              let fresh =
                Analysis.Reuse.analyze ~arch ?chunk ~threads ~params ~checked
                  nest
              in
              let shared =
                Analysis.Reuse.analyze ~arch ?chunk ~closed ~threads ~params
                  ~checked nest
              in
              if compare fresh shared <> 0 then
                fail (name ^ ": analyze ~closed differs"))
            [ None; Some k.Kernels.Kernel.fs_chunk ];
          let fs_chunk = k.Kernels.Kernel.fs_chunk
          and nfs_chunk = k.Kernels.Kernel.nfs_chunk in
          let expected =
            match
              Analysis.Reuse.overhead ~arch ~threads ~fs_chunk ~nfs_chunk
                ~func:k.Kernels.Kernel.func checked
            with
            | Some o -> (Some o, o.Analysis.Reuse.analytic)
            | None ->
                ( None,
                  Analysis.Reuse.analyze ~arch ~chunk:fs_chunk ~threads ~params
                    ~checked nest )
          in
          let got =
            Analysis.Reuse.overhead_or_analyze ~arch ~threads ~fs_chunk
              ~nfs_chunk ~checked nest
          in
          if compare expected got <> 0 then
            fail (name ^ ": overhead_or_analyze differs"))
        (Kernels.Registry.all ()))
    [ Archspec.Arch.paper_machine; arch ]

(* ------------------------------------------------------------------ *)
(* Analytic overhead (the Eq. 5 analogue)                              *)
(* ------------------------------------------------------------------ *)

let test_overhead_heat () =
  match Kernels.Registry.find "heat" with
  | None -> fail "no heat kernel"
  | Some k -> (
      let checked = Kernels.Kernel.parse k in
      match
        (* paper machine: the closed form certifies heat there (the tiny
           test machine's L1 makes line residency uncertain) *)
        Analysis.Reuse.overhead ~threads:4
          ~fs_chunk:k.Kernels.Kernel.fs_chunk
          ~nfs_chunk:k.Kernels.Kernel.nfs_chunk
          ~func:k.Kernels.Kernel.func checked
      with
      | None -> fail "heat should be closed-form certifiable"
      | Some o ->
          if o.Analysis.Reuse.n_fs <= o.Analysis.Reuse.n_nfs then
            fail "FS-prone chunk should show more FS cases";
          if o.Analysis.Reuse.percent <= 0. then
            fail "heat overhead should be positive")

let () =
  Alcotest.run "reuse"
    [
      ( "reuse",
        [
          Alcotest.test_case "accuracy vs simulator" `Slow test_accuracy;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "eq1 consistency" `Quick test_eq1_consistency;
          Alcotest.test_case "zero engine calls" `Quick
            test_zero_engine_calls;
          Alcotest.test_case "analytic cost attached" `Quick
            test_analytic_attaches_cost;
          Alcotest.test_case "analytic overhead" `Quick test_overhead_heat;
          Alcotest.test_case "one estimate per conflicting nest" `Quick
            test_one_estimate_per_nest;
          Alcotest.test_case "shared estimate, same result" `Quick
            test_shared_estimate_same_result;
        ] );
    ]
