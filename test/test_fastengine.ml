(* The fast engine's contract is bit-identical results to the reference
   transcription of the paper's procedure (Model.run ~engine:`Reference).
   This suite checks that contract on every registry kernel across several
   (threads, chunk) configurations, on randomly generated small nests, and
   checks that Par_sweep returns the same results at any domain count. *)

open Fsmodel

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* registry kernels                                                    *)
(* ------------------------------------------------------------------ *)

let configs = [ (2, None); (3, Some 1); (8, Some 4); (63, Some 2) ]

let test_registry_oracle () =
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      let checked = Kernels.Kernel.parse kernel in
      List.iter
        (fun (threads, chunk) ->
          let nest =
            Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
              ~params:[ ("num_threads", threads) ]
          in
          let cfg =
            { (Model.default_config ~threads ()) with Model.chunk }
          in
          let what =
            Printf.sprintf "%s t=%d c=%s" kernel.Kernels.Kernel.name threads
              (match chunk with Some c -> string_of_int c | None -> "pragma")
          in
          (* cap the evaluation: equivalence per step implies equivalence
             overall, and the full kernels are bench-sized *)
          Engine_oracle.assert_engines_agree ~what ~max_chunk_runs:8 cfg ~nest
            ~checked)
        configs)
    (Kernels.Registry.all ())

(* the stack-policy and invalidation ablations also go through both
   engines, so pin those paths too (small kernel, full evaluation) *)
let test_ablation_configs_oracle () =
  let kernel = Kernels.Heat.kernel ~rows:4 ~cols:258 () in
  let checked = Kernels.Kernel.parse kernel in
  let threads = 6 in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", threads) ]
  in
  let base = Model.default_config ~threads () in
  List.iter
    (fun (what, cfg) ->
      Engine_oracle.assert_engines_agree ~what cfg ~nest ~checked)
    [
      ("L1 stack", base);
      ("L2 stack", { base with Model.stack = Model.Level_l2 });
      ("8-line stack", { base with Model.stack = Model.Lines 8 });
      ("unbounded", { base with Model.stack = Model.Unbounded });
      ("invalidate", { base with Model.invalidate_on_write = true });
    ]

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* Every concrete nest of every fixture but the bad_* inputs, at 2, 4 and
   8 threads: the engines agree, and the closed form, wherever it
   certifies, equals them.  A nest whose bounds do not evaluate (an
   unbound size parameter, a bound read from memory) has no count to
   compare. *)
let test_fixtures_oracle () =
  let fixtures =
    Sys.readdir "fixtures" |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".c"
           && not (String.starts_with ~prefix:"bad_" f))
    |> List.sort compare
  in
  let compared = ref 0 and certified = ref 0 in
  List.iter
    (fun file ->
      let checked =
        In_channel.with_open_bin (Filename.concat "fixtures" file)
          In_channel.input_all
        |> Minic.Parser.parse_program |> Minic.Typecheck.check_program
      in
      List.iter
        (fun func ->
          List.iter
            (fun threads ->
              let params = [ ("num_threads", threads) ] in
              match Loopir.Lower.lower_all checked ~func ~params with
              | exception Loopir.Lower.Lower_error _ -> ()
              | nests ->
                  List.iteri
                    (fun k nest ->
                      let cfg = Model.default_config ~threads () in
                      match Model.run cfg ~nest ~checked with
                      | exception
                          ( Loopir.Expr_eval.Unbound _
                          | Loopir.Expr_eval.Not_integer _ | Division_by_zero )
                        ->
                          ()
                      | fast -> (
                          let what =
                            Printf.sprintf "%s %s nest %d t=%d" file func k
                              threads
                          in
                          Engine_oracle.assert_engines_agree ~what cfg ~nest
                            ~checked;
                          incr compared;
                          match
                            Analysis.Closed_form.estimate cfg ~nest ~checked
                          with
                          | Analysis.Closed_form.Exact i ->
                              incr certified;
                              check Alcotest.int (what ^ ": closed form")
                                fast.Model.fs_cases
                                i.Analysis.Closed_form.fs_cases
                          | Analysis.Closed_form.Inapplicable _ -> ()))
                    nests)
            [ 2; 4; 8 ])
        (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog))
    fixtures;
  check Alcotest.bool "nests compared" true (!compared > 0);
  check Alcotest.bool "nests certified" true (!certified > 0)

(* ------------------------------------------------------------------ *)
(* random small nests                                                  *)
(* ------------------------------------------------------------------ *)

(* a templated mini-C generator: enough shape variety (nesting, multiple
   refs, strides, read/write mixes, straddling doubles) to exercise the
   cursor deltas, the odometer carries, and the dedup buffer *)
type gen_nest = {
  n : int;  (** parallel trip count *)
  m : int;  (** inner trip count; 0 = no inner loop *)
  chunk : int;
  threads : int;
  stmt : int;  (** statement variant *)
}

let source_of g =
  let body =
    match g.stmt with
    | 0 -> "a[i] = 1.0;"
    | 1 -> "a[i] = a[i] + b[i];"
    | 2 -> "a[2 * i] = b[i] + 1.0;"
    | 3 -> if g.m > 0 then "a[i + j] = a[i + j] + 1.0;" else "a[i] = 2.0;"
    | 4 -> if g.m > 0 then "a[i] = a[i] + b[j];" else "a[i] = b[i];"
    | _ -> if g.m > 0 then "c[4 * i + j] = a[i] + b[j];" else "c[i] = a[i];"
  in
  let inner =
    if g.m > 0 then
      Printf.sprintf "for (int j = 0; j < %d; j++) { %s }" g.m body
    else body
  in
  Printf.sprintf
    "double a[128];\ndouble b[128];\ndouble c[256];\n\
     void f(void) {\n\
     #pragma omp parallel for schedule(static,%d)\n\
     for (int i = 0; i < %d; i++) { %s } }"
    g.chunk g.n inner

let gen_nest_gen =
  QCheck2.Gen.(
    map
      (fun (n, m, chunk, threads, stmt) -> { n; m; chunk; threads; stmt })
      (tup5 (int_range 1 24) (int_range 0 5) (int_range 1 4) (int_range 1 9)
         (int_range 0 5)))

let prop_random_nests_oracle =
  QCheck2.Test.make ~name:"fast = reference on random small nests" ~count:120
    ~print:(fun g -> source_of g)
    gen_nest_gen
    (fun g ->
      let checked =
        Minic.Typecheck.check_program
          (Minic.Parser.parse_program (source_of g))
      in
      let nest =
        Loopir.Lower.lower checked ~func:"f"
          ~params:[ ("num_threads", g.threads) ]
      in
      let cfg = Model.default_config ~threads:g.threads () in
      let go engine =
        Model.run ~record_samples:true ~engine cfg ~nest ~checked
      in
      let fast = go `Fast and refr = go `Reference in
      fast.Model.fs_cases = refr.Model.fs_cases
      && fast.Model.thread_steps = refr.Model.thread_steps
      && fast.Model.iterations_evaluated = refr.Model.iterations_evaluated
      && fast.Model.samples = refr.Model.samples)

(* ------------------------------------------------------------------ *)
(* Par_sweep                                                           *)
(* ------------------------------------------------------------------ *)

let test_par_sweep_deterministic () =
  let kernel = Kernels.Saxpy.kernel ~n:768 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", 4) ]
  in
  let eval chunk =
    let cfg =
      { (Model.default_config ~threads:4 ()) with Model.chunk = Some chunk }
    in
    (Model.run cfg ~nest ~checked).Model.fs_cases
  in
  let chunks = [ 1; 2; 3; 4; 8; 16 ] in
  let seq = Par_sweep.map ~domains:1 eval chunks in
  let par = Par_sweep.map ~domains:4 eval chunks in
  check (Alcotest.list Alcotest.int) "1 domain = 4 domains" seq par;
  check (Alcotest.list Alcotest.int) "matches List.map" (List.map eval chunks)
    seq

let test_par_sweep_order_and_mapi () =
  let xs = List.init 23 (fun i -> i) in
  check
    (Alcotest.list Alcotest.int)
    "map keeps input order"
    (List.map (fun x -> x * x) xs)
    (Par_sweep.map ~domains:5 (fun x -> x * x) xs);
  check
    (Alcotest.list Alcotest.int)
    "mapi passes indices"
    (List.mapi (fun i x -> (10 * i) + x) xs)
    (Par_sweep.mapi ~domains:3 (fun i x -> (10 * i) + x) xs)

(* Both domains of a sweep bump Model.run_count; a plain counter could
   lose increments to the race, the atomic one must not. *)
let test_run_count_across_domains () =
  let kernel = Kernels.Saxpy.kernel ~n:2 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", 2) ]
  in
  let cfg = Model.default_config ~threads:2 () in
  let n = 20_000 in
  let before = Model.run_count () in
  ignore
    (Par_sweep.map ~domains:2
       (fun _ -> (Model.run cfg ~nest ~checked).Model.fs_cases)
       (List.init n Fun.id));
  check Alcotest.int "one increment per run" n (Model.run_count () - before)

exception Boom of int

let test_par_sweep_exceptions () =
  (match Par_sweep.map ~domains:4 (fun x -> if x = 7 then raise (Boom x) else x)
           (List.init 20 Fun.id)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ());
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Par_sweep.map: domains < 1") (fun () ->
      ignore (Par_sweep.map ~domains:0 Fun.id [ 1 ]))

let () =
  Alcotest.run "fastengine"
    [
      ( "oracle",
        [
          Alcotest.test_case "registry kernels, all configs" `Quick
            test_registry_oracle;
          Alcotest.test_case "ablation configs" `Quick
            test_ablation_configs_oracle;
          QCheck_alcotest.to_alcotest prop_random_nests_oracle;
          Alcotest.test_case "fixtures, engines and closed form" `Quick
            test_fixtures_oracle;
        ] );
      ( "par_sweep",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_par_sweep_deterministic;
          Alcotest.test_case "order and mapi" `Quick
            test_par_sweep_order_and_mapi;
          Alcotest.test_case "exception propagation" `Quick
            test_par_sweep_exceptions;
          Alcotest.test_case "run count across domains" `Quick
            test_run_count_across_domains;
        ] );
    ]
