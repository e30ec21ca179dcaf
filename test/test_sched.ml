(* The statistical test tier for seeded schedules: every law the
   distributional verdicts rest on, checked over the kernel registry.

   - replay determinism: a (kind, seed) pair is one value, not a sample;
   - cross-engine equality: fast and reference agree on every seed, in
     every result field (chunk runs, truncation and the sample series
     included, with and without a chunk-run cap), not just on the static
     deal;
   - static equivalence: a one-thread team, or one chunk covering the
     whole trip, collapses dynamic dispatch back to the static deal;
   - the Cole-Ramachandran steal bound: work stealing departs from the
     block deal only at steals, so the extra FS cases per seed are
     bounded by O(chunk) per recorded steal — checked over >= 32 seeds
     on every registry kernel;
   - Dist summaries are consistent with their own samples. *)

open Fsmodel

let check = Alcotest.check

let threads = 4

let setup (kernel : Kernels.Kernel.t) =
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", threads) ]
  in
  (checked, nest)

let run cfg ~nest ~checked = Model.run cfg ~nest ~checked

let par_trip nest =
  Loopir.Loop_nest.trip_count
    (Loopir.Loop_nest.parallel_loop nest)
    ~env:(fun v -> if v = "num_threads" then Some threads else None)

(* small instances for the tests that also run the reference engine *)
let small_kernels () =
  [
    Kernels.Heat.kernel ~rows:6 ~cols:520 ();
    Kernels.Saxpy.kernel ~n:640 ();
    Kernels.Transpose.kernel ~n:48 ();
  ]

let kinds =
  [
    Ompsched.Dispatch.Dynamic { chunk = 1 };
    Ompsched.Dispatch.Guided { min_chunk = 2 };
    Ompsched.Dispatch.Work_stealing { chunk = 2 };
  ]

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_replay_deterministic () =
  List.iter
    (fun kernel ->
      let checked, nest = setup kernel in
      let cfg = Model.default_config ~threads () in
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              let c = { cfg with Model.sched = Some (kind, seed) } in
              let a = run c ~nest ~checked and b = run c ~nest ~checked in
              check Alcotest.int
                (Printf.sprintf "%s %s seed %d fs"
                   kernel.Kernels.Kernel.name
                   (Ompsched.Dispatch.kind_name kind)
                   seed)
                a.Model.fs_cases b.Model.fs_cases;
              check Alcotest.int "steals replay" a.Model.steals
                b.Model.steals;
              check Alcotest.int "steps replay" a.Model.thread_steps
                b.Model.thread_steps)
            [ 0; 1; 5 ])
        kinds)
    (small_kernels ())

(* on at least one kernel the work-stealing distribution must be
   non-degenerate: distinct seeds produce distinct schedules (else the
   mean/p95 summaries are statistics of a constant) *)
let test_seeds_vary () =
  let checked, nest = setup (Kernels.Heat.kernel ~rows:6 ~cols:520 ()) in
  let cfg = Model.default_config ~threads () in
  let plans =
    List.init 16 (fun seed ->
        let c =
          {
            cfg with
            Model.sched =
              Some (Ompsched.Dispatch.Work_stealing { chunk = 2 }, seed);
          }
        in
        let r = run c ~nest ~checked in
        (r.Model.fs_cases, r.Model.steals))
  in
  let distinct = List.sort_uniq compare plans in
  if List.length distinct < 2 then
    Alcotest.fail "16 work-stealing seeds all produced the same execution"

(* ------------------------------------------------------------------ *)
(* Cross-engine equality, per seed                                     *)
(* ------------------------------------------------------------------ *)

let test_engines_agree_per_seed () =
  List.iter
    (fun kernel ->
      let checked, nest = setup kernel in
      let cfg = Model.default_config ~threads () in
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              let c = { cfg with Model.sched = Some (kind, seed) } in
              let what =
                Printf.sprintf "%s %s seed %d" kernel.Kernels.Kernel.name
                  (Ompsched.Dispatch.kind_name kind)
                  seed
              in
              Engine_oracle.assert_engines_agree ~what c ~nest ~checked;
              Engine_oracle.assert_engines_agree ~what:(what ^ " capped")
                ~max_chunk_runs:8 c ~nest ~checked)
            [ 0; 1; 2; 3; 4 ])
        kinds)
    (small_kernels ())

(* ------------------------------------------------------------------ *)
(* Static equivalence                                                  *)
(* ------------------------------------------------------------------ *)

let test_static_equivalence () =
  List.iter
    (fun kernel ->
      let checked, nest = setup kernel in
      let cfg = Model.default_config ~threads () in
      (* the 1-thread static deal is the common reference execution;
         keep num_threads bound to the team size the bounds were
         lowered with *)
      let solo =
        (run { cfg with Model.threads = 1 } ~nest ~checked).Model.fs_cases
      in
      let one_thread_dyn =
        (run
           {
             cfg with
             Model.threads = 1;
             sched = Some (Ompsched.Dispatch.Dynamic { chunk = 1 }, 11);
           }
           ~nest ~checked)
          .Model.fs_cases
      in
      let trip = max 1 (par_trip nest) in
      let whole_chunk =
        (run
           {
             cfg with
             Model.sched = Some (Ompsched.Dispatch.Dynamic { chunk = trip }, 7);
           }
           ~nest ~checked)
          .Model.fs_cases
      in
      let name = kernel.Kernels.Kernel.name in
      check Alcotest.int (name ^ ": 1-thread dynamic = 1-thread static") solo
        one_thread_dyn;
      check Alcotest.int (name ^ ": trip-chunk dynamic = 1-thread static")
        solo whole_chunk)
    (small_kernels ())

(* ------------------------------------------------------------------ *)
(* Cole-Ramachandran steal bound, 32 seeds, every registry kernel      *)
(* ------------------------------------------------------------------ *)

let test_steal_bound () =
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      let checked, nest = setup kernel in
      let cfg = Model.default_config ~threads () in
      let trip = max 1 (par_trip nest) in
      (* the stealing baseline is the block deal (the partition the
         deques start from), not the kernel's schedule(static,1) pragma *)
      let block =
        {
          cfg with
          Model.chunk =
            Some (Ompsched.Schedule.block_chunk ~threads ~total:trip);
        }
      in
      let fs_block = (run block ~nest ~checked).Model.fs_cases in
      let nrefs = List.length nest.Loopir.Loop_nest.refs in
      let ws_chunk = 2 in
      (* a relocated chunk carries [ws_chunk] parallel iterations, each
         expanding to the nest's inner work: the O(chunk) of the bound
         is in units of innermost accesses, not parallel iterations *)
      let total =
        Loopir.Loop_nest.total_iterations nest ~env:(fun v ->
            if v = "num_threads" then Some threads else None)
      in
      let inner_per = max 1 (total / trip) in
      let per_steal = 2 * threads * nrefs * ws_chunk * inner_per in
      for seed = 0 to 31 do
        let r =
          run
            {
              cfg with
              Model.sched =
                Some (Ompsched.Dispatch.Work_stealing { chunk = ws_chunk }, seed);
            }
            ~nest ~checked
        in
        let bound = fs_block + (per_steal * r.Model.steals) in
        if r.Model.fs_cases > bound then
          Alcotest.failf
            "%s seed %d: %d FS case(s) with %d steal(s) exceeds block deal \
             %d + %d per steal"
            kernel.Kernels.Kernel.name seed r.Model.fs_cases r.Model.steals
            fs_block per_steal
      done)
    (Kernels.Registry.all ())

(* ------------------------------------------------------------------ *)
(* Dist summaries                                                      *)
(* ------------------------------------------------------------------ *)

let test_dist_consistent () =
  let checked, nest = setup (Kernels.Saxpy.kernel ~n:640 ()) in
  let cfg = Model.default_config ~threads () in
  let kind = Ompsched.Dispatch.Work_stealing { chunk = 2 } in
  let d =
    Analysis.Dist.run ~seeds:(Analysis.Dist.seeds_upto 16) ~kind cfg ~nest
      ~checked
  in
  check Alcotest.int "16 samples" 16 (Array.length d.Analysis.Dist.fs);
  (* every sample is an independent engine run of the same seed *)
  Array.iteri
    (fun i seed ->
      let r =
        run { cfg with Model.sched = Some (kind, seed) } ~nest ~checked
      in
      check Alcotest.int
        (Printf.sprintf "sample %d matches direct run" i)
        r.Model.fs_cases d.Analysis.Dist.fs.(i);
      check Alcotest.int
        (Printf.sprintf "steals %d match direct run" i)
        r.Model.steals d.Analysis.Dist.steals.(i))
    d.Analysis.Dist.seeds;
  (* the summary statistics describe the samples *)
  let n = Array.length d.Analysis.Dist.fs in
  let mean =
    float_of_int (Array.fold_left ( + ) 0 d.Analysis.Dist.fs)
    /. float_of_int n
  in
  check (Alcotest.float 1e-9) "mean" mean d.Analysis.Dist.mean;
  let sorted = Array.copy d.Analysis.Dist.fs in
  Array.sort compare sorted;
  check Alcotest.int "min" sorted.(0) d.Analysis.Dist.min_fs;
  check Alcotest.int "max" sorted.(n - 1) d.Analysis.Dist.max_fs;
  check Alcotest.bool "p95 within range" true
    (d.Analysis.Dist.p95 >= d.Analysis.Dist.min_fs
    && d.Analysis.Dist.p95 <= d.Analysis.Dist.max_fs);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let s = Analysis.Dist.summary d in
  check Alcotest.bool "summary mentions the seed count" true
    (contains s "16 seed(s)");
  check Alcotest.bool "summary quotes the steal rate" true
    (contains s "steal(s)/seed")

let () =
  Alcotest.run "sched"
    [
      ( "laws",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_replay_deterministic;
          Alcotest.test_case "seeds vary" `Quick test_seeds_vary;
          Alcotest.test_case "engines agree per seed" `Quick
            test_engines_agree_per_seed;
          Alcotest.test_case "static equivalence" `Quick
            test_static_equivalence;
          Alcotest.test_case "steal bound (32 seeds, all kernels)" `Quick
            test_steal_bound;
          Alcotest.test_case "dist summaries" `Quick test_dist_consistent;
        ] );
    ]
