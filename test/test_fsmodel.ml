(* Tests for the paper's core contribution: ownership lists, per-thread
   cache states, φ-detection (fast path vs reference), the full model, the
   linear-regression predictor, overhead normalization, and the advisor. *)

open Fsmodel

let check = Alcotest.check
let fail = Alcotest.fail

let checked_of src =
  Minic.Typecheck.check_program (Minic.Parser.parse_program src)

let lower ?(threads = 2) ~func checked =
  Loopir.Lower.lower checked ~func ~params:[ ("num_threads", threads) ]

(* a minimal write-only kernel: 16 doubles = 2 cache lines *)
let writer_src =
  "double y[16];\nvoid f(void) {\n#pragma omp parallel for schedule(static,1)\nfor (int i = 0; i < 16; i++) { y[i] = 1.0; } }"

(* ------------------------------------------------------------------ *)
(* Ownership                                                           *)
(* ------------------------------------------------------------------ *)

let ownership_of ?(params = [ ("num_threads", 2) ]) ~func src =
  let checked = checked_of src in
  let nest = Loopir.Lower.lower checked ~func ~params in
  let layout = Loopir.Layout.make ~line_bytes:64 checked in
  let var_slots =
    List.map (fun (l : Loopir.Loop_nest.loop) -> l.Loopir.Loop_nest.var)
      nest.Loopir.Loop_nest.loops
  in
  Ownership.compile ~layout ~line_bytes:64 ~params ~var_slots nest

let test_ownership_dedup_write_dominates () =
  (* y[i] += x[i]: read + write of the same line dedups to one written
     entry; x is a separate line *)
  let own =
    ownership_of ~func:"f"
      "double x[8];\ndouble y[8];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 8; i++) { y[i] += x[i]; } }"
  in
  let entries = Ownership.lines own [| 0 |] in
  check Alcotest.int "two lines" 2 (List.length entries);
  let writes = List.filter (fun e -> e.Ownership.written) entries in
  check Alcotest.int "one written" 1 (List.length writes);
  check Alcotest.int "refs compiled" 3 (Ownership.ref_count own)

let test_ownership_moves_with_index () =
  let own = ownership_of ~func:"f" writer_src in
  let l0 = (List.hd (Ownership.lines own [| 0 |])).Ownership.line in
  let l7 = (List.hd (Ownership.lines own [| 7 |])).Ownership.line in
  let l8 = (List.hd (Ownership.lines own [| 8 |])).Ownership.line in
  check Alcotest.int "same line for 0..7" l0 l7;
  check Alcotest.int "next line at 8" (l0 + 1) l8

let test_ownership_straddle () =
  (* a double at bytes 60..67 straddles two lines *)
  let own =
    ownership_of ~func:"f"
      "char pad[60];\ndouble v[2];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 2; i++) { v[i] = 1.0; } }"
  in
  (* pad occupies line 0; v starts at 64 (aligned) — use index to check
     a straddle is impossible here because layout aligns bases; instead
     check via field arithmetic that size spanning works: v[0] at 64..72
     is one line *)
  let e = Ownership.lines own [| 0 |] in
  check Alcotest.int "aligned double, one line" 1 (List.length e)

let test_ownership_param_folding () =
  (* num_threads = 2 folds into the offset: element shift of 4*2 = 8
     elements = exactly one 64-byte line *)
  let own =
    ownership_of ~params:[ ("num_threads", 2) ] ~func:"f"
      "double y[32];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 8; i++) { y[i + 4 * num_threads] = 1.0; } }"
  in
  (* index 0 accesses element 8 => second line of y *)
  let e = List.hd (Ownership.lines own [| 0 |]) in
  let own0 =
    ownership_of ~func:"f"
      "double y[32];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 8; i++) { y[i] = 1.0; } }"
  in
  let e0 = List.hd (Ownership.lines own0 [| 0 |]) in
  check Alcotest.int "offset by one line" (e0.Ownership.line + 1)
    e.Ownership.line

(* ------------------------------------------------------------------ *)
(* Thread_cache_state                                                  *)
(* ------------------------------------------------------------------ *)

let test_state_written_persists () =
  let s = Thread_cache_state.create ~capacity:4 in
  ignore (Thread_cache_state.insert s ~line:1 ~written:true);
  ignore (Thread_cache_state.insert s ~line:1 ~written:false);
  check Alcotest.bool "still written" true
    (Thread_cache_state.holds_modified s 1)

let test_state_eviction () =
  let s = Thread_cache_state.create ~capacity:2 in
  ignore (Thread_cache_state.insert s ~line:1 ~written:true);
  ignore (Thread_cache_state.insert s ~line:2 ~written:false);
  (match Thread_cache_state.insert s ~line:3 ~written:false with
  | Some (1, true) -> ()
  | _ -> fail "line 1 (written) evicted");
  check Alcotest.bool "1 gone" false (Thread_cache_state.holds s 1);
  check Alcotest.bool "invalidate 2" true (Thread_cache_state.invalidate s 2);
  check Alcotest.int "size" 1 (Thread_cache_state.size s)

(* ------------------------------------------------------------------ *)
(* Fs_counter fast path == Detect reference                            *)
(* ------------------------------------------------------------------ *)

type counter_op = Access of int * int * bool | Invalidate of int * int

(* Teams of 1-70 threads (one and two mask words), capacities 1-16 and
   two past 16-bit slots, and each case's lines drawn from a small pool
   spread over several pages around 0, below it, and far away in both
   directions, so the page window grows both ways, and past its cap, so
   some pages live outside it *)
let counter_case_gen =
  QCheck2.Gen.(
    let* threads = int_range 1 70 in
    let* capacity =
      frequency [ (8, int_range 1 16); (1, oneofl [ 65_536; max_int ]) ]
    in
    let line =
      oneof
        [
          int_range (-3_000) 3_000;
          map (fun x -> x + 1_000_000) (int_range 0 2_100);
          map (fun x -> x - 4_000_000) (int_range 0 2_100);
          map (fun x -> x + (1 lsl 40)) (int_range 0 2_100);
          map (fun x -> x - (1 lsl 55)) (int_range 0 2_100);
        ]
    in
    let* pool = map Array.of_list (list_size (int_range 1 12) line) in
    let op =
      map3
        (fun me k r ->
          if r = 0 then Invalidate (me, pool.(k))
          else Access (me, pool.(k), r land 1 = 0))
        (int_bound (threads - 1))
        (int_bound (Array.length pool - 1))
        (int_bound 5)
    in
    let* ops = list_size (int_range 1 300) op in
    return (threads, capacity, ops))

let print_counter_case (threads, capacity, ops) =
  Printf.sprintf "threads %d, capacity %d: %s" threads capacity
    (String.concat "; "
       (List.map
          (function
            | Access (me, line, w) ->
                Printf.sprintf "T%d %s %d" me (if w then "w" else "r") line
            | Invalidate (me, line) -> Printf.sprintf "T%d inv %d" me line)
          ops))

let prop_counter_matches_detect =
  QCheck2.Test.make
    ~name:"Fs_counter bitmask fast path matches the Detect reference"
    ~count:300 ~print:print_counter_case counter_case_gen
    (fun (threads, capacity, ops) ->
      let fast = Fs_counter.create ~threads ~capacity in
      let states =
        Array.init threads (fun _ -> Thread_cache_state.create ~capacity)
      in
      List.for_all
        (function
          | Access (me, line, written) ->
              let f1 = Fs_counter.process fast ~me ~line ~written in
              let f2 = Detect.fs_cases_for_insert ~states ~me ~line in
              ignore (Thread_cache_state.insert states.(me) ~line ~written);
              f1 = f2
          | Invalidate (me, line) ->
              Fs_counter.invalidate_others fast ~me ~line;
              Array.iteri
                (fun j s ->
                  if j <> me then ignore (Thread_cache_state.invalidate s line))
                states;
              true)
        ops
      && List.for_all
           (fun op ->
             let line =
               match op with Access (_, l, _) | Invalidate (_, l) -> l
             in
             List.for_all
               (fun tid ->
                 Fs_counter.holds fast ~tid line
                 = Thread_cache_state.holds states.(tid) line)
               (List.init threads Fun.id))
           ops)

let test_detect_counts_only_modified () =
  let states = Array.init 3 (fun _ -> Thread_cache_state.create ~capacity:8) in
  ignore (Thread_cache_state.insert states.(1) ~line:5 ~written:false);
  ignore (Thread_cache_state.insert states.(2) ~line:5 ~written:true);
  check Alcotest.int "only the writer counts" 1
    (Detect.fs_cases_for_insert ~states ~me:0 ~line:5);
  check Alcotest.int "mask excludes self" 1
    (Detect.fs_cases_for_insert ~states ~me:1 ~line:5);
  check Alcotest.int "self write not counted" 0
    (Detect.fs_cases_for_insert ~states ~me:2 ~line:5)

(* ------------------------------------------------------------------ *)
(* Model: hand-computed cases                                          *)
(* ------------------------------------------------------------------ *)

let run_model ?(threads = 2) ?chunk ?(stack = Model.Level_l1)
    ?(invalidate = false) ~func src =
  let checked = checked_of src in
  let nest = lower ~threads ~func checked in
  let cfg =
    {
      (Model.default_config ~threads ()) with
      Model.chunk;
      stack;
      invalidate_on_write = invalidate;
    }
  in
  Model.run cfg ~nest ~checked

let test_model_two_thread_writer () =
  (* worked out by hand: 2 threads, chunk 1, 16 writes over 2 lines.
     Per line: first lockstep step contributes 0 (t0) + 1 (t1), the next
     three steps 2 each => 7 per line, 14 total. *)
  let r = run_model ~threads:2 ~func:"f" writer_src in
  check Alcotest.int "fs cases" 14 r.Model.fs_cases;
  check Alcotest.int "iterations" 16 r.Model.iterations_evaluated;
  check Alcotest.int "steps" 8 r.Model.thread_steps;
  check Alcotest.int "chunk runs" 8 r.Model.chunk_runs

let test_model_no_fs_with_line_chunk () =
  (* chunk 8 = one full line per thread: disjoint lines, zero FS *)
  let r = run_model ~threads:2 ~chunk:8 ~func:"f" writer_src in
  check Alcotest.int "no fs" 0 r.Model.fs_cases

let test_model_single_thread_no_fs () =
  let r = run_model ~threads:1 ~func:"f" writer_src in
  check Alcotest.int "no fs" 0 r.Model.fs_cases

let test_model_reads_never_fs () =
  let src =
    "double x[16];\ndouble s[16];\nvoid f(void) {\n#pragma omp parallel for private(t)\nfor (int i = 0; i < 16; i++) { s[i] = x[i] + x[0]; } }"
  in
  (* s writes do FS, but make x read-only: count with a read-only body *)
  let src_ro =
    "double x[16];\nint sink;\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 16; i++) { if (x[i] > 100.0) { sink = 1; } } }"
  in
  ignore src;
  let r = run_model ~threads:4 ~func:"f" src_ro in
  (* x reads shared but never modified; sink written only under a false
     condition — the model is control-flow-insensitive so sink IS counted.
     Use a truly read-only variant instead: *)
  check Alcotest.bool "fs only from sink writes" true (r.Model.fs_cases >= 0);
  let src_pure =
    "double x[16];\nvoid f(void) {\n#pragma omp parallel for private(acc)\nfor (int i = 0; i < 16; i++) { int acc = x[i] > 0.0; } }"
  in
  let r2 = run_model ~threads:4 ~func:"f" src_pure in
  check Alcotest.int "read-only loop has no fs" 0 r2.Model.fs_cases

let test_model_invalidate_ablation_reduces () =
  let base = run_model ~threads:4 ~func:"f" writer_src in
  let abl = run_model ~threads:4 ~invalidate:true ~func:"f" writer_src in
  check Alcotest.bool "ablation reduces or equals" true
    (abl.Model.fs_cases <= base.Model.fs_cases)

let test_model_unbounded_counts_at_least_l1 () =
  let k = Kernels.Heat.kernel ~rows:6 ~cols:130 () in
  let checked = Kernels.Kernel.parse k in
  let nest = lower ~threads:4 ~func:"heat_step" checked in
  let cfg = Model.default_config ~threads:4 () in
  let l1 = Model.run cfg ~nest ~checked in
  let unb =
    Model.run { cfg with Model.stack = Model.Unbounded } ~nest ~checked
  in
  check Alcotest.bool "unbounded >= L1" true
    (unb.Model.fs_cases >= l1.Model.fs_cases)

let test_model_truncation_and_samples () =
  let checked = checked_of writer_src in
  let nest = lower ~threads:2 ~func:"f" checked in
  let cfg = Model.default_config ~threads:2 () in
  let r = Model.run ~max_chunk_runs:3 ~record_samples:true cfg ~nest ~checked in
  check Alcotest.bool "truncated" true r.Model.truncated;
  check Alcotest.int "3 runs" 3 r.Model.chunk_runs;
  check Alcotest.int "3 samples" 3 (List.length r.Model.samples);
  let cums = List.map (fun s -> s.Model.cumulative_fs) r.Model.samples in
  check Alcotest.bool "monotone" true
    (List.sort compare cums = cums)

let test_model_samples_full_run () =
  let checked = checked_of writer_src in
  let nest = lower ~threads:2 ~func:"f" checked in
  let cfg = Model.default_config ~threads:2 () in
  let r = Model.run ~record_samples:true cfg ~nest ~checked in
  check Alcotest.bool "not truncated" false r.Model.truncated;
  check Alcotest.int "8 samples" 8 (List.length r.Model.samples);
  (match List.rev r.Model.samples with
  | last :: _ ->
      check Alcotest.int "last sample = total" r.Model.fs_cases
        last.Model.cumulative_fs
  | [] -> fail "no samples")

let test_model_outer_sequential_loops () =
  (* cache states persist across regions: second region re-touches the
     same lines, so FS cases roughly double *)
  let src =
    "double y[16];\nvoid f(void) {\nint t;\nint i;\nfor (t = 0; t < 2; t++) {\n#pragma omp parallel for private(i) schedule(static,1)\nfor (i = 0; i < 16; i++) { y[i] = 1.0; } }\n}"
  in
  let one_region = run_model ~threads:2 ~func:"f" writer_src in
  let two_regions = run_model ~threads:2 ~func:"f" src in
  check Alcotest.int "iterations doubled" 32 two_regions.Model.iterations_evaluated;
  check Alcotest.bool "fs at least doubles" true
    (two_regions.Model.fs_cases >= 2 * one_region.Model.fs_cases)

let test_model_block_schedule_default () =
  (* without a schedule clause, OpenMP deals contiguous blocks: 16 doubles
     over 2 threads = one full line each, so no false sharing at all —
     unlike the round-robin chunk-1 version of the same loop *)
  let src =
    "double y[16];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 16; i++) { y[i] = 1.0; } }"
  in
  let r = run_model ~threads:2 ~func:"f" src in
  check Alcotest.int "block distribution has no fs" 0 r.Model.fs_cases;
  check Alcotest.int "one chunk run" 1 r.Model.chunk_runs;
  (* at 8 threads the 2-double blocks do share lines again *)
  let r8 = run_model ~threads:8 ~func:"f" src in
  check Alcotest.bool "8 small blocks share lines" true (r8.Model.fs_cases > 0)

let test_model_thread_guard () =
  let checked = checked_of writer_src in
  let nest = lower ~threads:2 ~func:"f" checked in
  (* thread counts above the single-word bitmask width (62) now run on the
     Bitset path; results must agree with the reference engine *)
  let cfg = { (Model.default_config ~threads:2 ()) with Model.threads = 63 } in
  let fast = Model.run ~engine:`Fast cfg ~nest ~checked in
  let slow = Model.run ~engine:`Reference cfg ~nest ~checked in
  check Alcotest.int "63-thread fast = reference" slow.Model.fs_cases
    fast.Model.fs_cases;
  check Alcotest.int "steps agree" slow.Model.thread_steps
    fast.Model.thread_steps;
  match Model.run { cfg with Model.threads = 0 } ~nest ~checked with
  | exception Invalid_argument _ -> ()
  | _ -> fail "0 threads must be rejected"

(* ------------------------------------------------------------------ *)
(* Linreg                                                              *)
(* ------------------------------------------------------------------ *)

let test_linreg_exact () =
  let pts = List.init 10 (fun i -> (float_of_int i, (3. *. float_of_int i) +. 2.)) in
  let l1 = Linreg.fit_ols pts in
  check (Alcotest.float 1e-9) "ols a" 3. l1.Linreg.a;
  check (Alcotest.float 1e-9) "ols b" 2. l1.Linreg.b;
  check (Alcotest.float 1e-9) "rms" 0. (Linreg.residual_rms l1 pts);
  (* paper formulas are exact for a pure proportional law *)
  let pts0 = List.init 10 (fun i -> (float_of_int (i + 1), 5. *. float_of_int (i + 1))) in
  let l2 = Linreg.fit_paper pts0 in
  check (Alcotest.float 1e-9) "paper a" 5. l2.Linreg.a;
  check (Alcotest.float 1e-9) "paper b" 0. l2.Linreg.b;
  check (Alcotest.float 1e-9) "predict" 50. (Linreg.predict l2 10.)

let test_linreg_degenerate () =
  (match Linreg.fit_paper [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "empty");
  match Linreg.fit_paper [ (0., 1.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "all-zero x"

let prop_linreg_ols_recovers_line =
  QCheck2.Test.make ~name:"OLS recovers an exact affine law" ~count:200
    QCheck2.Gen.(
      triple (float_range (-5.) 5.) (float_range (-100.) 100.)
        (int_range 3 20))
    (fun (a, b, n) ->
      let pts = List.init n (fun i -> (float_of_int i, (a *. float_of_int i) +. b)) in
      let l = Linreg.fit_ols pts in
      abs_float (l.Linreg.a -. a) < 1e-6 && abs_float (l.Linreg.b -. b) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Predict                                                             *)
(* ------------------------------------------------------------------ *)

let test_predict_x_max () =
  let k = Kernels.Heat.kernel ~rows:10 ~cols:66 () in
  let checked = Kernels.Kernel.parse k in
  let nest = lower ~threads:4 ~func:"heat_step" checked in
  let cfg = Model.default_config ~threads:4 () in
  (* 8 regions x 64/(4*1) = 128 *)
  check Alcotest.int "x_max heat" 128 (Predict.x_max cfg ~nest);
  let cfg16 = { cfg with Model.chunk = Some 16 } in
  check Alcotest.int "x_max chunk16" 8 (Predict.x_max cfg16 ~nest)

let test_predict_close_to_full () =
  let k = Kernels.Heat.kernel ~rows:10 ~cols:258 () in
  let checked = Kernels.Kernel.parse k in
  let nest = lower ~threads:4 ~func:"heat_step" checked in
  let cfg = Model.default_config ~threads:4 () in
  let full = Model.run cfg ~nest ~checked in
  let pred = Predict.predict ~runs:16 cfg ~nest ~checked in
  let err =
    abs_float
      (float_of_int (pred.Predict.predicted_fs - full.Model.fs_cases))
    /. float_of_int (max 1 full.Model.fs_cases)
  in
  check Alcotest.bool "within 10%" true (err < 0.10);
  check Alcotest.bool "cheaper than full" true
    (pred.Predict.iterations_evaluated < full.Model.iterations_evaluated)

let test_predict_fit_methods_agree_on_linear () =
  let checked = checked_of writer_src in
  let nest = lower ~threads:2 ~func:"f" checked in
  let cfg = Model.default_config ~threads:2 () in
  let p1 = Predict.predict ~runs:6 ~fit:Predict.Paper cfg ~nest ~checked in
  let p2 = Predict.predict ~runs:6 ~fit:Predict.Ols cfg ~nest ~checked in
  let d = abs (p1.Predict.predicted_fs - p2.Predict.predicted_fs) in
  check Alcotest.bool "fits close" true (d <= 2)

(* ------------------------------------------------------------------ *)
(* Overhead percent                                                    *)
(* ------------------------------------------------------------------ *)

let test_overhead_percent_bounds () =
  let checked = checked_of writer_src in
  let a =
    Overhead_percent.analyze ~threads:2 ~fs_chunk:1 ~nfs_chunk:8 ~func:"f"
      checked
  in
  check Alcotest.bool "positive" true (a.Overhead_percent.percent > 0.);
  check Alcotest.bool "below 100" true (a.Overhead_percent.percent < 100.);
  check Alcotest.bool "n_fs > n_nfs" true
    (a.Overhead_percent.n_fs > a.Overhead_percent.n_nfs)

let test_overhead_percent_equal_chunks_zero () =
  let checked = checked_of writer_src in
  let a =
    Overhead_percent.analyze ~threads:2 ~fs_chunk:8 ~nfs_chunk:8 ~func:"f"
      checked
  in
  check (Alcotest.float 1e-9) "zero" 0. a.Overhead_percent.percent

let test_overhead_percent_factor_monotone () =
  let checked = checked_of writer_src in
  let p f =
    (Overhead_percent.analyze ~fs_cost_factor:f ~threads:2 ~fs_chunk:1
       ~nfs_chunk:8 ~func:"f" checked).Overhead_percent.percent
  in
  check Alcotest.bool "bigger factor, bigger share" true (p 0.9 > p 0.1)

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

let test_advisor_recommends_line_chunk () =
  let checked = checked_of writer_src in
  let a = Advisor.advise ~threads:2 ~chunks:[ 1; 2; 4; 8; 16 ] ~func:"f" checked in
  check (Alcotest.option Alcotest.int) "chunk 8 kills FS" (Some 8)
    a.Advisor.best_chunk;
  match a.Advisor.victims with
  | [ v ] ->
      check Alcotest.string "victim" "y" v.Advisor.base;
      check Alcotest.int "stride" 8 v.Advisor.parallel_stride;
      check Alcotest.int "padding" 56 v.Advisor.padding_bytes
  | _ -> fail "one victim"

let test_advisor_linreg_victim () =
  let k = Kernels.Linreg_kernel.kernel ~nacc:64 ~m:64 () in
  let checked = Kernels.Kernel.parse k in
  let a = Advisor.advise ~threads:4 ~func:"linear_regression" checked in
  match a.Advisor.victims with
  | [ v ] ->
      check Alcotest.string "victim" "tid_args" v.Advisor.base;
      check Alcotest.int "40B stride" 40 v.Advisor.parallel_stride;
      check Alcotest.int "24B pad" 24 v.Advisor.padding_bytes
  | _ -> fail "one victim"

(* ------------------------------------------------------------------ *)
(* Eliminate                                                           *)
(* ------------------------------------------------------------------ *)

let model_fs ~threads checked ~func =
  let nest = lower ~threads ~func checked in
  let cfg = Model.default_config ~threads () in
  (Model.run cfg ~nest ~checked).Model.fs_cases

let test_eliminate_spread_scalar_array () =
  let checked = checked_of writer_src in
  let before = model_fs ~threads:4 checked ~func:"f" in
  let after_checked, plan = Eliminate.eliminate ~threads:4 ~func:"f" checked in
  (match plan.Eliminate.rewrites with
  | [ Eliminate.Spread_array { base = "y"; factor = 8 } ] -> ()
  | _ -> fail "expected y spread by 8");
  let after = model_fs ~threads:4 after_checked ~func:"f" in
  check Alcotest.bool "fs before" true (before > 0);
  check Alcotest.int "fs eliminated" 0 after

let test_eliminate_pad_struct () =
  let k = Kernels.Linreg_kernel.kernel ~nacc:64 ~m:64 () in
  let checked = Kernels.Kernel.parse k in
  let before = model_fs ~threads:4 checked ~func:"linear_regression" in
  let after_checked, plan =
    Eliminate.eliminate ~threads:4 ~func:"linear_regression" checked
  in
  (match plan.Eliminate.rewrites with
  | [ Eliminate.Pad_struct { struct_name = "acc"; pad_bytes = 24 } ] -> ()
  | _ -> fail "expected acc padded by 24");
  (* the padded accumulator is exactly one line per element *)
  check Alcotest.int "padded sizeof" 64
    (Minic.Ctypes.sizeof after_checked.Minic.Typecheck.structs
       (Minic.Ast.Tstruct "acc"));
  let after = model_fs ~threads:4 after_checked ~func:"linear_regression" in
  check Alcotest.bool "fs before" true (before > 0);
  check Alcotest.int "fs eliminated" 0 after

let test_eliminate_preserves_semantics () =
  (* the transformed saxpy computes the same values, just spread out *)
  let k = Kernels.Saxpy.kernel ~n:64 () in
  let checked = Kernels.Kernel.parse k in
  let after_checked, plan = Eliminate.eliminate ~threads:4 ~func:"saxpy" checked in
  let factor =
    match plan.Eliminate.rewrites with
    | [ Eliminate.Spread_array { base = "y"; factor } ] -> factor
    | _ -> fail "expected y spread"
  in
  let it = Execsim.Interp.create ~threads:4 after_checked in
  Execsim.Interp.exec it ~func:"init";
  Execsim.Interp.exec it ~func:"saxpy";
  List.iter
    (fun i ->
      match
        Execsim.Interp.read_global it "y" [ Execsim.Interp.Idx (i * factor) ]
      with
      | Execsim.Value.V_float f ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "y[%d]" i)
            ((0.5 *. float_of_int i) +. (2.5 *. float_of_int i))
            f
      | _ -> fail "not a float")
    [ 0; 5; 63 ]

let test_eliminate_heat_2d () =
  (* the 2-D heat victim spreads only the innermost (column) dimension *)
  let k = Kernels.Heat.kernel ~rows:6 ~cols:130 () in
  let checked = Kernels.Kernel.parse k in
  let before = model_fs ~threads:4 checked ~func:"heat_step" in
  let after_checked, plan = Eliminate.eliminate ~threads:4 ~func:"heat_step" checked in
  (match plan.Eliminate.rewrites with
  | [ Eliminate.Spread_array { base = "B"; factor = 8 } ] -> ()
  | _ -> fail "expected B spread by 8");
  (match List.assoc_opt "B" after_checked.Minic.Typecheck.global_types with
  | Some (Minic.Ast.Tarray (Minic.Ast.Tarray (Minic.Ast.Tdouble, c), 6)) ->
      check Alcotest.int "columns inflated" (130 * 8) c
  | _ -> fail "B type");
  let after = model_fs ~threads:4 after_checked ~func:"heat_step" in
  check Alcotest.bool "fs before" true (before > 0);
  check Alcotest.int "fs eliminated" 0 after

let test_eliminate_no_victims_noop () =
  let src =
    "double y[64];\nvoid f(void) {\n#pragma omp parallel for schedule(static,8)\nfor (int i = 0; i < 64; i++) { y[i] = 1.0; } }"
  in
  (* chunk 8 still has a victim by stride analysis (stride 8 < 64), so use
     a stride >= line instead: a struct of exactly one line *)
  ignore src;
  let src_line =
    {|struct big { double a; double b; double c; double d; double e; double f; double g; double h; };
struct big y[64];
void f(void) {
  #pragma omp parallel for
  for (int i = 0; i < 64; i++) { y[i].a = 1.0; }
}
|}
  in
  let checked = checked_of src_line in
  let _, plan = Eliminate.eliminate ~threads:4 ~func:"f" checked in
  check Alcotest.bool "no rewrites" true (plan.Eliminate.rewrites = [])

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_fs_counter_invalidate_others () =
  let c = Fs_counter.create ~threads:3 ~capacity:8 in
  ignore (Fs_counter.process c ~me:1 ~line:5 ~written:true);
  ignore (Fs_counter.process c ~me:2 ~line:5 ~written:true);
  check Alcotest.int "two holders" 2 (Fs_counter.process c ~me:0 ~line:5 ~written:true);
  Fs_counter.invalidate_others c ~me:0 ~line:5;
  check Alcotest.bool "others dropped" false
    (Fs_counter.holds c ~tid:1 5);
  (* re-insert by thread 0 sees nobody *)
  check Alcotest.int "clean after invalidation" 0
    (Fs_counter.process c ~me:0 ~line:5 ~written:false);
  (* past 62 threads a line's mask takes a second word; φ still counts
     correctly *)
  let w = Fs_counter.create ~threads:70 ~capacity:4 in
  ignore (Fs_counter.process w ~me:65 ~line:3 ~written:true);
  ignore (Fs_counter.process w ~me:69 ~line:3 ~written:true);
  check Alcotest.int "wide counter sees both writers" 2
    (Fs_counter.process w ~me:0 ~line:3 ~written:false);
  (* a capacity past 16 bits takes 4-byte slots: the 65,536th resident
     line has slot 65,536, which a 2-byte slot would read as absent *)
  let big = Fs_counter.create ~threads:2 ~capacity:70_000 in
  for line = 0 to 69_999 do
    ignore (Fs_counter.process big ~me:0 ~line ~written:true)
  done;
  check Alcotest.bool "slot 65,536 held" true
    (Fs_counter.holds big ~tid:0 65_535);
  check Alcotest.int "its writer counts" 1
    (Fs_counter.process big ~me:1 ~line:65_535 ~written:false);
  (* a page outside the window is released and its block reused for a
     window page before the far line comes back: the far line must find
     no state *)
  let c = Fs_counter.create ~threads:2 ~capacity:1 in
  let far = (1 lsl 40) + 784 in
  List.iter
    (fun (me, line, written) ->
      ignore (Fs_counter.process c ~me ~line ~written))
    [ (0, 0, false); (0, far, false); (0, 5_000, false); (1, 10_000, true) ];
  check Alcotest.int "far line comes back clean" 0
    (Fs_counter.process c ~me:0 ~line:far ~written:false);
  match Fs_counter.create ~threads:0 ~capacity:4 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "0 threads must be rejected"

let test_eliminate_unsupported () =
  (* a 2-D array element is neither struct nor scalar only if victims were
     computed against an aggregate — exercise the Unsupported path via a
     hand-made victim *)
  let checked = checked_of "double y[8];\n" in
  let fake =
    { Advisor.base = "nope"; repr = "nope"; parallel_stride = 8;
      padding_bytes = 56 }
  in
  match Eliminate.plan_for checked ~line_bytes:64 [ fake ] with
  | exception Eliminate.Unsupported _ -> ()
  | _ -> fail "unknown victim must be Unsupported"

let test_linreg_pp_and_predict_fields () =
  let checked = checked_of writer_src in
  let nest = lower ~threads:2 ~func:"f" checked in
  let cfg = Model.default_config ~threads:2 () in
  let p = Predict.predict ~runs:4 cfg ~nest ~checked in
  check Alcotest.bool "truncated run count" true (p.Predict.runs_evaluated <= 4);
  check Alcotest.int "x_max is 8 runs" 8 p.Predict.x_max;
  check Alcotest.int "full iterations" 16 p.Predict.full_iterations;
  check Alcotest.bool "line pp smoke" true
    (String.length (Format.asprintf "%a" Linreg.pp p.Predict.line) > 5)

let test_report_kcount () =
  check Alcotest.string "small" "999" (Report.kcount 999);
  check Alcotest.string "thousands" "94K" (Report.kcount 94421);
  check Alcotest.string "millions" "94,421K" (Report.kcount 94_421_123);
  check Alcotest.string "pct" "6.9%" (Report.pct 6.94)

let test_report_table () =
  let t =
    Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' t in
  check Alcotest.int "4 lines" 4 (List.length lines);
  check Alcotest.bool "no trailing spaces" true
    (List.for_all
       (fun l -> l = "" || l.[String.length l - 1] <> ' ')
       lines)

let () =
  Alcotest.run "fsmodel"
    [
      ( "ownership",
        [
          Alcotest.test_case "dedup + write dominates" `Quick
            test_ownership_dedup_write_dominates;
          Alcotest.test_case "moves with index" `Quick
            test_ownership_moves_with_index;
          Alcotest.test_case "alignment" `Quick test_ownership_straddle;
          Alcotest.test_case "param folding" `Quick
            test_ownership_param_folding;
        ] );
      ( "cache_state",
        [
          Alcotest.test_case "written persists" `Quick
            test_state_written_persists;
          Alcotest.test_case "eviction" `Quick test_state_eviction;
        ] );
      ( "detect",
        [
          Alcotest.test_case "only modified counts" `Quick
            test_detect_counts_only_modified;
          QCheck_alcotest.to_alcotest prop_counter_matches_detect;
        ] );
      ( "model",
        [
          Alcotest.test_case "two-thread writer (hand computed)" `Quick
            test_model_two_thread_writer;
          Alcotest.test_case "line-sized chunk kills FS" `Quick
            test_model_no_fs_with_line_chunk;
          Alcotest.test_case "single thread" `Quick
            test_model_single_thread_no_fs;
          Alcotest.test_case "reads never FS" `Quick test_model_reads_never_fs;
          Alcotest.test_case "invalidate ablation" `Quick
            test_model_invalidate_ablation_reduces;
          Alcotest.test_case "unbounded stack" `Quick
            test_model_unbounded_counts_at_least_l1;
          Alcotest.test_case "truncation + samples" `Quick
            test_model_truncation_and_samples;
          Alcotest.test_case "samples on full run" `Quick
            test_model_samples_full_run;
          Alcotest.test_case "outer sequential loops" `Quick
            test_model_outer_sequential_loops;
          Alcotest.test_case "block schedule default" `Quick
            test_model_block_schedule_default;
          Alcotest.test_case "thread guard" `Quick test_model_thread_guard;
        ] );
      ( "linreg",
        [
          Alcotest.test_case "exact fits" `Quick test_linreg_exact;
          Alcotest.test_case "degenerate" `Quick test_linreg_degenerate;
          QCheck_alcotest.to_alcotest prop_linreg_ols_recovers_line;
        ] );
      ( "predict",
        [
          Alcotest.test_case "x_max" `Quick test_predict_x_max;
          Alcotest.test_case "close to full" `Quick test_predict_close_to_full;
          Alcotest.test_case "fit methods agree" `Quick
            test_predict_fit_methods_agree_on_linear;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "bounds" `Quick test_overhead_percent_bounds;
          Alcotest.test_case "equal chunks" `Quick
            test_overhead_percent_equal_chunks_zero;
          Alcotest.test_case "factor monotone" `Quick
            test_overhead_percent_factor_monotone;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "line chunk" `Quick
            test_advisor_recommends_line_chunk;
          Alcotest.test_case "linreg victim" `Quick test_advisor_linreg_victim;
        ] );
      ( "eliminate",
        [
          Alcotest.test_case "spread scalar array" `Quick
            test_eliminate_spread_scalar_array;
          Alcotest.test_case "pad struct" `Quick test_eliminate_pad_struct;
          Alcotest.test_case "semantics preserved" `Quick
            test_eliminate_preserves_semantics;
          Alcotest.test_case "2-D heat" `Quick test_eliminate_heat_2d;
          Alcotest.test_case "no victims" `Quick
            test_eliminate_no_victims_noop;
        ] );
      ( "report",
        [
          Alcotest.test_case "kcount" `Quick test_report_kcount;
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "fs_counter invalidate" `Quick
            test_fs_counter_invalidate_others;
          Alcotest.test_case "eliminate unsupported" `Quick
            test_eliminate_unsupported;
          Alcotest.test_case "predict fields" `Quick
            test_linreg_pp_and_predict_fields;
        ] );
    ]
