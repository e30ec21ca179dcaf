(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§IV) on the simulated 48-core machine.

     fig2   execution time vs chunk size (linear regression kernel)
     tab1   measured vs modeled FS overhead % — heat diffusion
     tab2   measured vs modeled FS overhead % — DFT
     tab3   measured vs modeled FS overhead % — linear regression
     tab4   predicted vs modeled FS cases — heat diffusion
     tab5   predicted vs modeled FS cases — DFT
     tab6   predicted vs modeled FS cases — linear regression
     fig6   FS cases grow linearly with chunk runs
     fig8   measured/modeled/predicted % vs threads — heat
     fig9   measured/modeled/predicted % vs threads — DFT
     calib  the fs_cost_factor calibration fit
     ablate stack-policy / invalidation / associativity / predictor-depth
     compare  compile-time model vs runtime trace detector
     serve  analysis-service cache: cold vs warm latency, batch scaling
     micro  bechamel micro-benchmarks (one per table/figure pipeline)

   Usage: main.exe [--quick] [--only ID] [--no-micro] [--jobs N]

   "Measured" columns come from the MESI execution simulator (the repo's
   stand-in for the paper's hardware testbed; see DESIGN.md), so absolute
   seconds differ from the paper — shapes and model-vs-measured agreement
   are the reproduction targets.  Paper values are printed alongside where
   the paper reports them.

   Independent configuration sweeps (per-thread-count studies, chunk
   sweeps) run through Fsmodel.Par_sweep, so they spread over OCaml
   domains when more than one is available; --jobs pins the count
   (--domains is the older spelling, kept as an alias; results are
   identical at any value).  Wall-clock per section and the headline FS
   counts are also written to BENCH.json (schema: DESIGN.md §12). *)

let quick = ref false
let only : string option ref = ref None
let micro_enabled = ref true
let domains = ref (Fsmodel.Par_sweep.recommended_domains ())

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--no-micro" :: rest ->
        micro_enabled := false;
        parse rest
    | (("--jobs" | "-j" | "--domains") as flag) :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> domains := d
        | _ ->
            Printf.eprintf "%s expects a positive integer, got %s\n" flag n;
            exit 2);
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: main.exe [--quick] [--only ID] [--no-micro] [--jobs N]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let par_map f xs = Fsmodel.Par_sweep.map ~domains:!domains f xs

let thread_set () =
  if !quick then [ 2; 8; 24; 48 ] else [ 2; 4; 8; 16; 24; 32; 40; 48 ]

let heat_kernel () =
  if !quick then Kernels.Heat.kernel ~rows:10 ~cols:7682 ()
  else Kernels.Heat.kernel ()

let dft_kernel () =
  if !quick then Kernels.Dft.kernel ~freqs:8 ~samples:7680 ()
  else Kernels.Dft.kernel ()

let linreg_kernel () =
  if !quick then Kernels.Linreg_kernel.kernel ~nacc:1200 ~m:256 ()
  else Kernels.Linreg_kernel.kernel ()

let section_times : (string * float) list ref = ref []

let section id title f =
  let run =
    match !only with None -> true | Some wanted -> wanted = id
  in
  if run then begin
    Printf.printf "\n== %s: %s ==\n\n" id title;
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    section_times := (id, dt) :: !section_times;
    Printf.printf "\n[%s done in %.1fs]\n" id dt
  end

let pct = Fsmodel.Report.pct
let kcount = Fsmodel.Report.kcount

(* ------------------------------------------------------------------ *)
(* Shared per-kernel study: measured + full model + prediction at every
   team size (reused by tab1-6 and fig8/9).                            *)
(* ------------------------------------------------------------------ *)

type row = {
  threads : int;
  meas : Execsim.Run.comparison;
  full : Fsmodel.Overhead_percent.analysis;
  pred : Fsmodel.Overhead_percent.analysis;
}

let study_cache : (string, row list) Hashtbl.t = Hashtbl.create 4

let study (kernel : Kernels.Kernel.t) =
  match Hashtbl.find_opt study_cache kernel.Kernels.Kernel.name with
  | Some rows -> rows
  | None ->
      let checked = Kernels.Kernel.parse kernel in
      let rows =
        par_map
          (fun threads ->
            let meas = Execsim.Run.measured_fs_percent ~threads kernel in
            let full =
              Fsmodel.Overhead_percent.analyze ~threads
                ~fs_chunk:kernel.Kernels.Kernel.fs_chunk
                ~nfs_chunk:kernel.Kernels.Kernel.nfs_chunk
                ~func:kernel.Kernels.Kernel.func checked
            in
            let pred =
              Fsmodel.Overhead_percent.analyze
                ~mode:
                  (Fsmodel.Overhead_percent.Predicted
                     kernel.Kernels.Kernel.pred_runs)
                ~threads ~fs_chunk:kernel.Kernels.Kernel.fs_chunk
                ~nfs_chunk:kernel.Kernels.Kernel.nfs_chunk
                ~func:kernel.Kernels.Kernel.func checked
            in
            { threads; meas; full; pred })
          (thread_set ())
      in
      Hashtbl.replace study_cache kernel.Kernels.Kernel.name rows;
      rows

(* paper-reported modeled percentages (Tables I-III), by thread count *)
let paper_pct = function
  | `Heat -> [ (2, 6.9); (4, 6.9); (8, 6.9); (16, 7.0); (24, 7.1); (32, 7.2);
               (40, 7.2); (48, 7.2) ]
  | `Dft -> [ (2, 32.0); (4, 31.6); (8, 31.5); (16, 33.2); (24, 32.8);
              (32, 35.6); (40, 36.7); (48, 35.8) ]
  | `Linreg -> [ (2, 16.1); (4, 14.7); (8, 9.0); (16, 4.9); (24, 3.3);
                 (32, 2.5); (40, 2.0); (48, 1.7) ]

let paper_pred_pct = function
  | `Heat -> [ (2, 6.8); (4, 6.8); (8, 6.8); (16, 6.9); (24, 6.9); (32, 6.9);
               (40, 6.9); (48, 7.0) ]
  | `Dft -> [ (2, 32.4); (4, 32.8); (8, 32.8); (16, 32.9); (24, 31.8);
              (32, 34.2); (40, 35.1); (48, 34.1) ]
  | `Linreg -> []

let paper_col table threads =
  match List.assoc_opt threads table with
  | Some v -> pct v
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* fig2                                                                *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  let threads = 8 in
  let kernel =
    if !quick then Kernels.Linreg_kernel.kernel ~nacc:480 ~m:128 ()
    else Kernels.Linreg_kernel.kernel ~nacc:2400 ~m:256 ()
  in
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", threads) ]
  in
  Printf.printf
    "Execution time of the linear-regression kernel vs chunk size (%d threads).\n\
     Paper Fig. 2 shape: time falls steeply as the chunk grows from 1,\n\
     flattening around chunk ~10-30 (about 30%% total improvement).\n\n"
    threads;
  let chunks = [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 15; 20; 25; 30 ] in
  (* every chunk is an independent (simulator, predictor) pair, so sweep
     them in parallel and compute the vs-chunk-1 column afterwards *)
  let points =
    par_map
      (fun chunk ->
        let m = Execsim.Run.measure ~chunk ~threads kernel in
        let cfg =
          { (Fsmodel.Model.default_config ~threads ()) with
            Fsmodel.Model.chunk = Some chunk }
        in
        let p = Fsmodel.Predict.predict ~runs:10 cfg ~nest ~checked in
        (chunk, m.Execsim.Run.seconds, p.Fsmodel.Predict.predicted_fs))
      chunks
  in
  let base =
    match points with (_, s, _) :: _ -> Some s | [] -> None
  in
  let rows =
    List.map
      (fun (chunk, seconds, predicted_fs) ->
        let speedup =
          match base with
          | Some b when seconds > 0. ->
              Printf.sprintf "%.1f%%" (100. *. (b -. seconds) /. b)
          | _ -> "-"
        in
        [ string_of_int chunk;
          Printf.sprintf "%.5f" seconds;
          speedup;
          kcount predicted_fs ])
      points
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "chunk"; "simulated time (s)"; "vs chunk 1"; "modeled FS cases" ]
       rows)

(* ------------------------------------------------------------------ *)
(* tab1-3                                                              *)
(* ------------------------------------------------------------------ *)

let overhead_table which (kernel : Kernels.Kernel.t) =
  Printf.printf
    "FS overhead as %% of execution time: measured on the simulated machine\n\
     (chunk %d = FS case, chunk %d = non-FS case) vs the compile-time model.\n\
     The paper's modeled column is shown for reference (different substrate,\n\
     different absolute numbers; the shape is the comparison target).\n\n"
    kernel.Kernels.Kernel.fs_chunk kernel.Kernels.Kernel.nfs_chunk;
  let rows =
    List.map
      (fun r ->
        [ string_of_int r.threads;
          Printf.sprintf "%.4f" r.meas.Execsim.Run.fs.Execsim.Run.seconds;
          Printf.sprintf "%.4f" r.meas.Execsim.Run.nfs.Execsim.Run.seconds;
          pct r.meas.Execsim.Run.percent;
          pct r.full.Fsmodel.Overhead_percent.percent;
          paper_col (paper_pct which) r.threads ])
      (study kernel)
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "threads"; "T_fs (s)"; "T_nfs (s)"; "measured FS";
           "modeled FS"; "paper modeled" ]
       rows)

let tab1 () = overhead_table `Heat (heat_kernel ())
let tab2 () = overhead_table `Dft (dft_kernel ())

let tab3 () =
  overhead_table `Linreg (linreg_kernel ());
  Printf.printf
    "\nPaper Table III note reproduced: the kernel is parallelized at the\n\
     outermost level with an inner trip of M/num_threads, so the modeled\n\
     FS-case count decays ~1/threads (see tab6) while the measured effect\n\
     stays small — modeled and measured diverge, unlike tab1/tab2.\n"

(* ------------------------------------------------------------------ *)
(* tab4-6                                                              *)
(* ------------------------------------------------------------------ *)

let predict_table which (kernel : Kernels.Kernel.t) =
  Printf.printf
    "Predicted (linear regression over %d chunk runs, §III-E) vs fully\n\
     modeled FS cases, for the FS chunk (%d) and the non-FS chunk (%d).\n\n"
    kernel.Kernels.Kernel.pred_runs kernel.Kernels.Kernel.fs_chunk
    kernel.Kernels.Kernel.nfs_chunk;
  let rows =
    List.map
      (fun r ->
        [ string_of_int r.threads;
          kcount r.pred.Fsmodel.Overhead_percent.n_fs;
          kcount r.pred.Fsmodel.Overhead_percent.n_nfs;
          pct r.pred.Fsmodel.Overhead_percent.percent;
          kcount r.full.Fsmodel.Overhead_percent.n_fs;
          kcount r.full.Fsmodel.Overhead_percent.n_nfs;
          pct r.full.Fsmodel.Overhead_percent.percent;
          (match paper_pred_pct which with
          | [] -> "-"
          | t -> paper_col t r.threads) ])
      (study kernel)
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "threads"; "pred FS"; "pred nFS"; "pred %"; "model FS";
           "model nFS"; "model %"; "paper pred %" ]
       rows);
  (* prediction quality summary *)
  let errs =
    List.filter_map
      (fun r ->
        let f = r.full.Fsmodel.Overhead_percent.n_fs in
        if f = 0 then None
        else
          Some
            (100.
            *. Float.abs
                 (float_of_int (r.pred.Fsmodel.Overhead_percent.n_fs - f))
            /. float_of_int f))
      (study kernel)
  in
  if errs <> [] then
    Printf.printf "\nmean |predicted-modeled| error on N_fs: %.1f%%\n"
      (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))

let tab4 () = predict_table `Heat (heat_kernel ())
let tab5 () = predict_table `Dft (dft_kernel ())

let tab6 () =
  predict_table `Linreg (linreg_kernel ());
  Printf.printf
    "\nPaper Table VI shape reproduced when the modeled FS count decays\n\
     roughly as 1/threads down the column (paper: 86,315K at 2 threads to\n\
     7,987K at 48).\n"

(* ------------------------------------------------------------------ *)
(* fig6                                                                *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let kernel =
    if !quick then Kernels.Heat.kernel ~rows:10 ~cols:1922 ()
    else Kernels.Heat.kernel ~rows:10 ~cols:7682 ()
  in
  let threads = 8 in
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
      ~params:[ ("num_threads", threads) ]
  in
  let cfg = Fsmodel.Model.default_config ~threads () in
  let r = Fsmodel.Model.run ~record_samples:true cfg ~nest ~checked in
  let samples = Array.of_list r.Fsmodel.Model.samples in
  let n = Array.length samples in
  Printf.printf
    "Cumulative FS cases vs chunk runs (heat, %d threads, chunk 1).\n\
     Paper Fig. 6: the relation is linear, which justifies the\n\
     linear-regression predictor.\n\n"
    threads;
  let picks =
    List.filter (fun i -> i < n)
      [ 0; n / 8; n / 4; (3 * n) / 8; n / 2; (5 * n) / 8; (3 * n) / 4;
        (7 * n) / 8; n - 1 ]
  in
  print_endline
    (Fsmodel.Report.table ~header:[ "chunk run"; "cumulative FS cases" ]
       (List.map
          (fun i ->
            let s = samples.(i) in
            [ string_of_int s.Fsmodel.Model.chunk_run;
              string_of_int s.Fsmodel.Model.cumulative_fs ])
          (List.sort_uniq compare picks)));
  (* linearity: R^2 of the least-squares fit *)
  let pts =
    Array.to_list
      (Array.map
         (fun s ->
           ( float_of_int s.Fsmodel.Model.chunk_run,
             float_of_int s.Fsmodel.Model.cumulative_fs ))
         samples)
  in
  let line = Fsmodel.Linreg.fit_ols pts in
  let rms = Fsmodel.Linreg.residual_rms line pts in
  let mean_y =
    List.fold_left (fun a (_, y) -> a +. y) 0. pts /. float_of_int n
  in
  Printf.printf "\nfit: %s; residual RMS = %.0f (%.3f%% of mean)\n"
    (Format.asprintf "%a" Fsmodel.Linreg.pp line)
    rms
    (100. *. rms /. Float.max 1. mean_y)

(* ------------------------------------------------------------------ *)
(* fig8/9                                                              *)
(* ------------------------------------------------------------------ *)

let fig89 which (kernel : Kernels.Kernel.t) =
  Printf.printf
    "FS effect (%% of execution time) by team size: measurement vs the full\n\
     model vs the linear-regression prediction (paper Figs. 8/9 summary).\n\n";
  let rows =
    List.map
      (fun r ->
        [ string_of_int r.threads;
          pct r.meas.Execsim.Run.percent;
          pct r.full.Fsmodel.Overhead_percent.percent;
          pct r.pred.Fsmodel.Overhead_percent.percent;
          paper_col (paper_pct which) r.threads ])
      (study kernel)
  in
  print_endline
    (Fsmodel.Report.table
       ~header:[ "threads"; "measured"; "modeled"; "predicted"; "paper modeled" ]
       rows)

let fig8 () = fig89 `Heat (heat_kernel ())
let fig9 () = fig89 `Dft (dft_kernel ())

(* ------------------------------------------------------------------ *)
(* calib                                                               *)
(* ------------------------------------------------------------------ *)

let calib () =
  Printf.printf
    "Calibration of fs_cost_factor (currently %.2f): for each inner-parallel\n\
     configuration, the factor that would make the modeled %% equal the\n\
     simulator's measured %%.  The default is the geometric mean over heat\n\
     and DFT.\n\n"
    Costmodel.Total_cost.default_fs_cost_factor;
  let implied = ref [] in
  List.iter
    (fun (kernel : Kernels.Kernel.t) ->
      List.iter
        (fun r ->
          let m = r.meas.Execsim.Run.percent /. 100. in
          let p = r.full.Fsmodel.Overhead_percent.percent /. 100. in
          if m > 0.001 && m < 0.999 && p > 0.001 && p < 0.999 then begin
            (* percent = F/(B+F); invert both to F/B ratios *)
            let ratio_meas = m /. (1. -. m) in
            let ratio_model = p /. (1. -. p) in
            let f =
              Costmodel.Total_cost.default_fs_cost_factor *. ratio_meas
              /. ratio_model
            in
            implied := f :: !implied;
            Printf.printf "%-6s T=%-2d measured=%s modeled=%s implied factor %.2f\n"
              kernel.Kernels.Kernel.name r.threads
              (pct r.meas.Execsim.Run.percent)
              (pct r.full.Fsmodel.Overhead_percent.percent)
              f
          end)
        (study kernel))
    [ heat_kernel (); dft_kernel () ];
  match !implied with
  | [] -> print_endline "no usable configurations"
  | fs ->
      let geomean =
        exp
          (List.fold_left (fun a f -> a +. log f) 0. fs
          /. float_of_int (List.length fs))
      in
      Printf.printf "\ngeometric mean of implied factors: %.2f\n" geomean

(* ------------------------------------------------------------------ *)
(* ablate                                                              *)
(* ------------------------------------------------------------------ *)

let ablate () =
  let threads = 8 in
  (* DFT sized so each thread's touched lines exceed the L1 stack but not
     an unbounded one: the capacity bound of step 3 then matters, because
     stale modified lines from earlier sequential iterations would
     otherwise inflate the count. *)
  let kernel = Kernels.Dft.kernel ~freqs:6 ~samples:4096 () in
  let checked = Kernels.Kernel.parse kernel in
  let nest =
    Loopir.Lower.lower checked ~func:"dft"
      ~params:[ ("num_threads", threads) ]
  in
  let base = Fsmodel.Model.default_config ~threads () in
  let run cfg = (Fsmodel.Model.run cfg ~nest ~checked).Fsmodel.Model.fs_cases in
  Printf.printf
    "(a) Stack-distance policy (DFT, %d threads, chunk 1): the LRU capacity\n\
     bound (paper step 3) prevents stale-line overcounting.\n\n" threads;
  par_map
    (fun (name, cfg) -> (name, run cfg))
    [
      ("L1-sized stack (paper)", base);
      ("L2-sized stack", { base with Fsmodel.Model.stack = Fsmodel.Model.Level_l2 });
      ("64-line stack", { base with Fsmodel.Model.stack = Fsmodel.Model.Lines 64 });
      ("unbounded stack", { base with Fsmodel.Model.stack = Fsmodel.Model.Unbounded });
      ("L1 + write-invalidate",
       { base with Fsmodel.Model.invalidate_on_write = true });
    ]
  |> List.iter (fun (name, fs) -> Printf.printf "  %-28s %9d FS cases\n" name fs);
  (* (b) predictor depth, on heat whose per-run FS count has a small
     warm-up transient (the first touch of every line), so depth matters *)
  let hk = Kernels.Heat.kernel ~rows:10 ~cols:3842 () in
  let hchecked = Kernels.Kernel.parse hk in
  let hnest =
    Loopir.Lower.lower hchecked ~func:"heat_step"
      ~params:[ ("num_threads", threads) ]
  in
  let hfull =
    (Fsmodel.Model.run base ~nest:hnest ~checked:hchecked).Fsmodel.Model.fs_cases
  in
  Printf.printf
    "\n(b) Predictor depth (heat, %d threads): relative N_fs error vs chunk\n\
     runs evaluated (full model: %d cases).\n\n" threads hfull;
  List.iter
    (fun runs ->
      let p =
        Fsmodel.Predict.predict ~runs base ~nest:hnest ~checked:hchecked
      in
      Printf.printf "  %3d runs -> %9d (%.2f%% error, %dx less work)\n" runs
        p.Fsmodel.Predict.predicted_fs
        (100.
        *. Float.abs (float_of_int (p.Fsmodel.Predict.predicted_fs - hfull))
        /. float_of_int (max 1 hfull))
        (p.Fsmodel.Predict.full_iterations
        / max 1 p.Fsmodel.Predict.iterations_evaluated))
    [ 2; 5; 10; 20; 50 ];
  (* (c) fully associative vs set associative (paper §III-C), replayed on a
     trace with real temporal reuse (linreg: hot accumulator line + a
     cyclically re-read point array) *)
  Printf.printf
    "\n(c) Fully-associative LRU (the model's assumption) vs the real L1\n\
     set-associative geometry, replaying one thread's line trace:\n\n";
  (* 8192 points * 16B = 128KB of point data cycled through a 64KB L1:
     real capacity pressure, where replacement policies could diverge *)
  let lr_kernel = Kernels.Linreg_kernel.kernel ~nacc:16 ~m:16384 () in
  let lr_checked = Kernels.Kernel.parse lr_kernel in
  let trace = ref [] in
  let sink =
    {
      Execsim.Interp.null_sink with
      Execsim.Interp.mem_access =
        (fun ~tid ~addr ~size:_ ~write:_ ->
          if tid = 0 then trace := (addr / 64) :: !trace);
    }
  in
  let it =
    (* two threads: each unit then streams 128KB of points through the
       64KB L1 *)
    Execsim.Interp.create ~threads:2 ~chunk_override:1 ~sink lr_checked
  in
  Execsim.Interp.exec it ~func:"init";
  trace := [];
  Execsim.Interp.exec it ~func:"linear_regression";
  let lines = List.rev !trace in
  let arch = Archspec.Arch.paper_machine in
  let full_assoc = Cachesim.Lru_stack.create
      ~capacity:(Archspec.Cache_geom.lines arch.Archspec.Arch.l1) in
  let set_assoc = Cachesim.Set_assoc.create arch.Archspec.Arch.l1 in
  let fa_misses = ref 0 and sa_misses = ref 0 in
  List.iter
    (fun line ->
      if not (Cachesim.Lru_stack.touch full_assoc line) then begin
        incr fa_misses;
        ignore (Cachesim.Lru_stack.add full_assoc line ())
      end;
      match Cachesim.Set_assoc.access set_assoc line with
      | `Miss _ -> incr sa_misses
      | `Hit -> ())
    lines;
  Printf.printf
    "  %d accesses: fully-assoc misses %d, %d-way set-assoc misses %d (%.1f%% apart)\n"
    (List.length lines) !fa_misses
    arch.Archspec.Arch.l1.Archspec.Cache_geom.associativity !sa_misses
    (100.
    *. Float.abs (float_of_int (!sa_misses - !fa_misses))
    /. float_of_int (max 1 !fa_misses));
  (* (d) schedule kinds on the simulator: false sharing is a property of
     which iterations land next to each other, so dynamic self-scheduling
     with a small chunk false-shares like static,1 while line-sized chunks
     cure both *)
  Printf.printf
    "\n(d) Simulated FS misses by schedule kind (vector update, %d threads):\n\n"
    threads;
  par_map
    (fun sched ->
      let kernel =
        {
          Kernels.Kernel.name = "sched-" ^ sched;
          description = "";
          source =
            Printf.sprintf
              {|#define N 30720
double x[N];
double y[N];
void init(void) {
  int i;
  for (i = 0; i < N; i++) { x[i] = 1.0 * i; y[i] = 0.0; }
}
void f(void) {
  int i;
  #pragma omp parallel for private(i) schedule(%s)
  for (i = 0; i < N; i++) {
    y[i] = 2.5 * x[i] + 1.0;
  }
}
|}
              sched;
          func = "f";
          init_func = Some "init";
          fs_chunk = 1;
          nfs_chunk = 8;
          pred_runs = 10;
          parametric = None;
        }
      in
      let m = Execsim.Run.measure ~threads kernel in
      (sched, m))
    [ "static,1"; "static,8"; "static"; "dynamic,1"; "dynamic,8"; "guided" ]
  |> List.iter (fun (sched, m) ->
         Printf.printf "  schedule(%-9s) %6d FS misses, wall %.5f s\n" sched
           m.Execsim.Run.stats.Cachesim.Stats.coherence_false
           m.Execsim.Run.seconds);
  (* (e) contention extension (§VI): shared-cache + bandwidth terms *)
  Printf.printf
    "\n(e) Contention extension (paper §VI future work), streaming vector\n\
     update, Eq. 1 share taken by the new term:\n\n";
  let sk = Kernels.Saxpy.kernel () in
  let schecked = Kernels.Kernel.parse sk in
  List.iter
    (fun threads ->
      let nest =
        Loopir.Lower.lower schecked ~func:"saxpy"
          ~params:[ ("num_threads", threads) ]
      in
      let env v = if v = "num_threads" then Some threads else None in
      let c =
        Costmodel.Contention.analyze ~arch:Archspec.Arch.paper_machine
          ~threads ~env ~checked:schecked nest
      in
      let b =
        Costmodel.Total_cost.compute ~contention:true
          ~arch:Archspec.Arch.paper_machine ~threads ~fs_cases:0 ~env
          ~checked:schecked nest
      in
      Printf.printf "  T=%-2d %s -> %.1f%% of the loop total\n" threads
        (Format.asprintf "%a" Costmodel.Contention.pp c)
        (100.
        *. b.Costmodel.Total_cost.contention_cycles
        /. b.Costmodel.Total_cost.total_cycles))
    [ 1; 8; 24; 48 ]

(* ------------------------------------------------------------------ *)
(* lines                                                               *)
(* ------------------------------------------------------------------ *)

let lines_section () =
  Printf.printf
    "False sharing vs cache-line size: the same loop, the same schedule,\n\
     lines of 32/64/128 bytes.  The model counts sharing events, which grow\n\
     with the number of neighbouring threads a line can host; the simulator\n\
     shows actual transfers, which partially amortize on longer lines (one\n\
     stolen line now carries several of a thread's future writes).\n\n";
  let threads = 8 in
  let kernel =
    if !quick then Kernels.Heat.kernel ~rows:10 ~cols:1922 ()
    else Kernels.Heat.kernel ~rows:10 ~cols:7682 ()
  in
  let checked = Kernels.Kernel.parse kernel in
  let rows =
    par_map
      (fun line ->
        let arch =
          Archspec.Arch.with_line_bytes Archspec.Arch.paper_machine line
        in
        let nest =
          Loopir.Lower.lower checked ~func:"heat_step"
            ~params:[ ("num_threads", threads) ]
        in
        let cfg =
          { (Fsmodel.Model.default_config ~arch ~threads ()) with
            Fsmodel.Model.chunk = Some 1 }
        in
        let r = Fsmodel.Model.run cfg ~nest ~checked in
        let m = Execsim.Run.measure ~arch ~chunk:1 ~threads kernel in
        [ string_of_int line;
          kcount r.Fsmodel.Model.fs_cases;
          string_of_int m.Execsim.Run.stats.Cachesim.Stats.coherence_false;
          Printf.sprintf "%.5f" m.Execsim.Run.seconds ])
      [ 32; 64; 128 ]
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "line bytes"; "modeled FS cases"; "simulated FS misses";
           "simulated time (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* attrib                                                              *)
(* ------------------------------------------------------------------ *)

(* A/B guard for the attribution layer: the fast engine with no recorder
   attached must stay at its zero-allocation baseline (its one traversal
   tests the immutable [attrib] option once per ownership-list entry and
   then makes no recorder call), and the recorder's aggregate-only
   overhead is reported for reference.  Timings land in BENCH.json so a
   perf regression is visible in CI. *)
let attrib_times : (string * int * float * float) list ref = ref []

let attrib_section () =
  let threads = 8 in
  let kernels =
    [
      (if !quick then Kernels.Heat.kernel ~rows:10 ~cols:3842 ()
       else Kernels.Heat.kernel ());
      (if !quick then Kernels.Dft.kernel ~freqs:8 ~samples:7680 ()
       else Kernels.Dft.kernel ());
    ]
  in
  Printf.printf
    "Fast-engine wall-clock with attribution off vs on (%d threads,\n\
     chunk 1, best of 3 after one warm-up).  \"off\" is the unmodified\n\
     zero-allocation path; \"on\" attaches an aggregates-only recorder.\n\n"
    threads;
  let best_of_3 f =
    ignore (f ());
    let one () =
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0
    in
    List.fold_left min (one ()) [ one (); one () ]
  in
  let rows =
    List.map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        let nest =
          Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
            ~params:[ ("num_threads", threads) ]
        in
        let cfg =
          { (Fsmodel.Model.default_config ~threads ()) with
            Fsmodel.Model.chunk = Some 1 }
        in
        let nrefs = List.length nest.Loopir.Loop_nest.refs in
        let fs = ref 0 in
        let t_off =
          best_of_3 (fun () ->
              let r = Fsmodel.Model.run ~engine:`Fast cfg ~nest ~checked in
              fs := r.Fsmodel.Model.fs_cases;
              r)
        in
        let t_on =
          best_of_3 (fun () ->
              let sink =
                Fsmodel.Attrib.create ~trace_cap:0 ~threads ~nrefs ()
              in
              Fsmodel.Model.run ~engine:`Fast ~attrib:sink cfg ~nest ~checked)
        in
        attrib_times :=
          (kernel.Kernels.Kernel.name, !fs, t_off, t_on) :: !attrib_times;
        [ kernel.Kernels.Kernel.name;
          kcount !fs;
          Printf.sprintf "%.4f" t_off;
          Printf.sprintf "%.4f" t_on;
          Printf.sprintf "%.1f%%" (100. *. (t_on -. t_off) /. Float.max 1e-9 t_off) ])
      kernels
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "N_fs"; "attrib off (s)"; "attrib on (s)"; "overhead" ]
       rows)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_section () =
  Printf.printf
    "Compile-time model vs a runtime trace-based detector (related work,\n\
     paper §V): both must rank chunk sizes identically; the model needs no\n\
     execution and the predictor needs only a few chunk runs.\n\n";
  List.iter
    (fun kernel ->
      let c = Baseline.Compare.run ~threads:8 kernel in
      Format.printf "%a@." Baseline.Compare.pp c)
    [ Kernels.Saxpy.kernel ~n:7680 ();
      Kernels.Linreg_kernel.kernel ~nacc:480 ~m:128 () ]

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* Service-layer throughput: the same requests `fsdetect serve` answers,
   executed in-process against a Service.Api store so the timings are
   free of protocol and process noise.  Cold = empty cache, warm = the
   identical request list again (every response a cache hit); batch =
   cold request list shared across 1..N domains, fresh store per domain
   count so every scaling point pays the same work. *)
let serve_stats :
    (int * float * float * (int * int * float) list) option ref =
  ref None

let serve_section () =
  let names = Kernels.Registry.names () in
  let lint_req ?(threads = 8) k =
    Service.Req.v (Service.Req.Kernel k)
      (Service.Req.Lint
         {
           threads;
           chunk = None;
           json = false;
           fixits = true;
           params = [];
           fail_on = Service.Req.Race;
           exact = `Auto;
           exact_budget = Analysis.Depend.default_exact_budget;
           cost_model = `Sim;
           sched = None;
           seeds = 8;
         })
  in
  let explain_req k =
    Service.Req.v (Service.Req.Kernel k)
      (Service.Req.Explain
         {
           func = None;
           threads = 8;
           chunk = None;
           params = [];
           engine = `Fast;
           format = `Text;
           top = 3;
           trace_cap = None;
           sched = None;
           seeds = 8;
         })
  in
  let reqs =
    if !quick then List.map lint_req names
    else List.concat_map (fun k -> [ lint_req k; explain_req k ]) names
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let store = Service.Api.create_store () in
  let pass () = List.iter (fun r -> ignore (Service.Api.exec store r)) reqs in
  let cold = time pass in
  let warm = time pass in
  let n = List.length reqs in
  Printf.printf
    "Cold vs warm latency over %d requests (lint%s of every bundled\n\
     kernel) on one shared store:\n\n\
    \  cold  %.4f s  (%.1f ms/request)\n\
    \  warm  %.6f s  (%.3f ms/request)\n\
    \  warm speedup: %.0fx\n" n
    (if !quick then "" else " + explain")
    cold
    (1000. *. cold /. float_of_int n)
    warm
    (1000. *. warm /. float_of_int n)
    (cold /. Float.max 1e-9 warm);
  (* batch scaling: distinct (kernel, threads) pairs so every request is
     cold work, sharded over the domain pool like a serve batch *)
  let threads_list = if !quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  let batch_reqs =
    List.concat_map
      (fun k -> List.map (fun t -> lint_req ~threads:t k) threads_list)
      names
  in
  let bn = List.length batch_reqs in
  let counts =
    List.sort_uniq compare
      (List.filter (fun d -> d <= !domains) [ 1; 2; 4; !domains ])
  in
  Printf.printf
    "\nBatch throughput, %d cold lint requests sharded across domains\n\
     (fresh store per row):\n\n" bn;
  let batch =
    List.map
      (fun d ->
        let store = Service.Api.create_store () in
        let dt =
          time (fun () ->
              ignore
                (Fsmodel.Par_sweep.map ~domains:d (Service.Api.exec store)
                   batch_reqs))
        in
        Printf.printf "  %2d domain%s  %.3f s  (%.1f requests/s)\n" d
          (if d = 1 then " " else "s")
          dt
          (float_of_int bn /. dt);
        (d, bn, dt))
      counts
  in
  serve_stats := Some (n, cold, warm, batch)

(* ------------------------------------------------------------------ *)
(* exact                                                               *)
(* ------------------------------------------------------------------ *)

(* Decisiveness and cost of the exact dependence tier: every registry
   kernel's reference pairs classified with the tier off (Banerjee
   only), then with the default budget.  "upgraded" counts pairs whose
   Banerjee verdict was Unknown and became definite; "promoted" counts
   pairs whose may-claim was certified as a must with a witness. *)
let exact_stats : (string * int * int * int * float * float) list ref = ref []

let exact_section () =
  let threads = 8 in
  let params = [ ("num_threads", threads) ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf
    "Two-tier dependence analysis over every bundled kernel: Banerjee\n\
     only (--exact off) vs the default exact tier.  \"upgraded\" pairs\n\
     went from Unknown to a definite verdict; \"promoted\" pairs had a\n\
     may-claim certified as a must-conflict with a witness.\n\n";
  let rows =
    List.map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        let nest =
          Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func ~params
        in
        let off, t_off =
          time (fun () ->
              Analysis.Depend.pairs ~line_bytes:64 ~params ~exact:`Off nest)
        in
        let on, t_on =
          time (fun () -> Analysis.Depend.pairs ~line_bytes:64 ~params nest)
        in
        let unknown (p : Analysis.Depend.pair) =
          match p.Analysis.Depend.verdict with
          | Analysis.Depend.Unknown _ -> true
          | _ -> false
        in
        let count2 f = List.fold_left2 (fun n a b -> if f a b then n + 1 else n) 0 off on in
        let upgraded = count2 (fun po pe -> unknown po && not (unknown pe)) in
        let promoted =
          count2
            (fun (po : Analysis.Depend.pair) (pe : Analysis.Depend.pair) ->
              (not po.Analysis.Depend.ev.Analysis.Depend.ev_must)
              && pe.Analysis.Depend.ev.Analysis.Depend.ev_must)
        in
        exact_stats :=
          ( kernel.Kernels.Kernel.name,
            List.length on,
            upgraded,
            promoted,
            t_off,
            t_on )
          :: !exact_stats;
        [
          kernel.Kernels.Kernel.name;
          string_of_int (List.length on);
          string_of_int upgraded;
          string_of_int promoted;
          Printf.sprintf "%.4f" t_off;
          Printf.sprintf "%.4f" t_on;
        ])
      (Kernels.Registry.all ())
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "pairs"; "upgraded"; "promoted"; "banerjee (s)";
           "exact (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* cost model: analytic reuse-distance prediction vs the simulator      *)
(* ------------------------------------------------------------------ *)

(* kernel, threads, predicted/simulated beyond-L1 traffic and DRAM
   fetches, decision wall time of each path (the analytic one is the
   whole Reuse.analyze: reuse profile, closed-form FS count, Eq. 1) *)
let cost_model_stats :
    (string * int * float * float * float * float * float * float) list ref =
  ref []

let cost_model_section () =
  let arch = Archspec.Arch.small_test_machine in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf
    "Static reuse-distance prediction (Analysis.Reuse, zero simulation)\n\
     vs the execution-driven cache simulator on every bundled kernel at\n\
     the small test machine.  \"beyond-L1\" is the predicted traffic the\n\
     Eq. 1 cache term prices; the seconds columns compare the cost of\n\
     reaching a verdict each way (analytic: the full Reuse.analyze, with\n\
     the closed-form FS count and Eq. 1).\n\n";
  let rows =
    List.concat_map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        List.map
          (fun threads ->
            let params = [ ("num_threads", threads) ] in
            let nest =
              Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
                ~params
            in
            let a, t_an =
              time (fun () ->
                  Analysis.Reuse.analyze ~arch ~threads ~params ~checked nest)
            in
            let p = a.Analysis.Reuse.prediction in
            let m, t_sim =
              time (fun () -> Execsim.Run.measure ~arch ~threads kernel)
            in
            let st = m.Execsim.Run.stats in
            let sim_acc = float_of_int (Cachesim.Stats.accesses st) in
            let sim_beyond =
              sim_acc -. float_of_int st.Cachesim.Stats.l1_hits
            in
            let sim_mem = float_of_int st.Cachesim.Stats.mem_fetches in
            let pred_beyond =
              p.Analysis.Reuse.accesses -. p.Analysis.Reuse.l1_hits
            in
            cost_model_stats :=
              ( kernel.Kernels.Kernel.name,
                threads,
                pred_beyond,
                sim_beyond,
                p.Analysis.Reuse.mem_fetches,
                sim_mem,
                t_an,
                t_sim )
              :: !cost_model_stats;
            let err p s =
              if s <= 0. then "-"
              else Printf.sprintf "%+.1f%%" (100. *. (p -. s) /. s)
            in
            [
              kernel.Kernels.Kernel.name;
              string_of_int threads;
              Printf.sprintf "%.0f" pred_beyond;
              Printf.sprintf "%.0f" sim_beyond;
              err pred_beyond sim_beyond;
              Printf.sprintf "%.0f" p.Analysis.Reuse.mem_fetches;
              Printf.sprintf "%.0f" sim_mem;
              Printf.sprintf "%.4f" t_an;
              Printf.sprintf "%.4f" t_sim;
            ])
          [ 2; 4 ])
      (Kernels.Registry.all ())
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "t"; "pred >L1"; "sim >L1"; "err"; "pred mem";
           "sim mem"; "analytic (s)"; "sim (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* fix: materialized fixes re-analyzed — the verified-elimination loop *)
(* ------------------------------------------------------------------ *)

(* kernel, function, fs before/after (reference engine), removal
   fraction, analytic cost ratio (None when no certificate), verified *)
let fix_stats :
    (string * string * int * int * float * float option * bool) list ref =
  ref []

let fix_section () =
  let threads = 8 in
  Printf.printf
    "Verified elimination: every registry and micro-pattern kernel's\n\
     advised plan is materialized as transformed mini-C and the whole\n\
     analysis stack re-run on the result (%d threads).  The gate in\n\
     `make fix-verify` requires >= 90%% attributed-FS removal and no\n\
     analytic cost regression; kernels with no attributed FS report an\n\
     explicitly empty plan.\n\n"
    threads;
  let rows =
    List.concat_map
      (fun (kernel : Kernels.Kernel.t) ->
        let name = kernel.Kernels.Kernel.name in
        let checked = Kernels.Kernel.parse kernel in
        List.map
          (fun func ->
            let advice =
              Fsmodel.Advisor.advise ~domains:!domains ~threads ~func checked
            in
            match Analysis.Fixer.verify ~advice ~threads ~func checked with
            | Analysis.Fixer.Nothing_to_fix _ ->
                [ name; func; "-"; "-"; "-"; "-"; "clean" ]
            | Analysis.Fixer.Fix v ->
                fix_stats :=
                  ( name,
                    func,
                    v.Analysis.Fixer.before.Analysis.Fixer.fs_ref,
                    v.Analysis.Fixer.after.Analysis.Fixer.fs_ref,
                    v.Analysis.Fixer.removal,
                    v.Analysis.Fixer.cost_ratio,
                    v.Analysis.Fixer.verified )
                  :: !fix_stats;
                [
                  name;
                  func;
                  string_of_int v.Analysis.Fixer.before.Analysis.Fixer.fs_ref;
                  string_of_int v.Analysis.Fixer.after.Analysis.Fixer.fs_ref;
                  Printf.sprintf "%.1f%%" (100. *. v.Analysis.Fixer.removal);
                  (match v.Analysis.Fixer.cost_ratio with
                  | Some r -> Printf.sprintf "%.2fx" r
                  | None -> "-");
                  (if v.Analysis.Fixer.verified then "VERIFIED"
                   else "UNVERIFIED");
                ])
          (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog))
      (Kernels.Registry.all () @ Kernels.Registry.micros ())
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "function"; "fs before"; "fs after"; "removed";
           "cost"; "verdict" ]
       rows);
  let fixed = List.length !fix_stats in
  let verified =
    List.length (List.filter (fun (_, _, _, _, _, _, ok) -> ok) !fix_stats)
  in
  Printf.printf "\n%d fix(es) materialized, %d verified (%.0f%%)\n" fixed
    verified
    (if fixed = 0 then 100. else 100. *. float_of_int verified /. float_of_int fixed)

(* ------------------------------------------------------------------ *)
(* sched: distributional FS verdicts under seeded schedules            *)
(* ------------------------------------------------------------------ *)

(* kernel, schedule kind, seed count, mean/stddev/p95/max of the
   per-seed engine N_fs, mean steals per seed, sweep wall seconds *)
let sched_stats :
    (string * string * int * float * float * int * int * float * float)
    list ref =
  ref []

let sched_section () =
  let threads = 8 in
  let nseeds = if !quick then 8 else 16 in
  let seeds = Analysis.Dist.seeds_upto nseeds in
  let kinds =
    [
      Ompsched.Dispatch.Dynamic { chunk = 1 };
      Ompsched.Dispatch.Guided { min_chunk = 2 };
      Ompsched.Dispatch.Work_stealing { chunk = 2 };
    ]
  in
  let kernels =
    if !quick then
      [
        Kernels.Heat.kernel ~rows:6 ~cols:520 ();
        Kernels.Saxpy.kernel ~n:640 ();
        Kernels.Transpose.kernel ~n:48 ();
      ]
    else
      [
        Kernels.Heat.kernel ~rows:10 ~cols:2050 ();
        Kernels.Saxpy.kernel ~n:4096 ();
        Kernels.Transpose.kernel ~n:96 ();
      ]
  in
  Printf.printf
    "Distributional verdicts: each nondeterministic schedule kind is\n\
     replayed over %d seeds per kernel (%d threads) and the per-seed\n\
     engine N_fs summarized.  The spread (stddev, p95 vs mean) is what\n\
     the seeded statistical tier quantifies; steals/seed is nonzero only\n\
     under work stealing.\n\n"
    nseeds threads;
  let rows =
    List.concat_map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        let nest =
          Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
            ~params:[ ("num_threads", threads) ]
        in
        let cfg = Fsmodel.Model.default_config ~threads () in
        List.map
          (fun kind ->
            let t0 = Unix.gettimeofday () in
            let d =
              Analysis.Dist.run ~domains:!domains ~seeds ~kind cfg ~nest
                ~checked
            in
            let dt = Unix.gettimeofday () -. t0 in
            sched_stats :=
              ( kernel.Kernels.Kernel.name,
                Ompsched.Dispatch.kind_name kind,
                nseeds,
                d.Analysis.Dist.mean,
                d.Analysis.Dist.stddev,
                d.Analysis.Dist.p95,
                d.Analysis.Dist.max_fs,
                d.Analysis.Dist.mean_steals,
                dt )
              :: !sched_stats;
            [
              kernel.Kernels.Kernel.name;
              Ompsched.Dispatch.kind_name kind;
              Printf.sprintf "%.1f" d.Analysis.Dist.mean;
              Printf.sprintf "%.1f" d.Analysis.Dist.stddev;
              string_of_int d.Analysis.Dist.p95;
              Printf.sprintf "%d..%d" d.Analysis.Dist.min_fs
                d.Analysis.Dist.max_fs;
              Printf.sprintf "%.1f" d.Analysis.Dist.mean_steals;
              Printf.sprintf "%.4f" dt;
            ])
          kinds)
      kernels
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "schedule"; "mean fs"; "stddev"; "p95"; "range";
           "steals/seed"; "sweep (s)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* micro (bechamel)                                                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  if not !micro_enabled then
    print_endline "micro-benchmarks disabled (--no-micro)"
  else begin
    let open Bechamel in
    let small_heat = Kernels.Heat.kernel ~rows:6 ~cols:258 () in
    let small_dft = Kernels.Dft.kernel ~freqs:4 ~samples:256 () in
    let small_linreg = Kernels.Linreg_kernel.kernel ~nacc:64 ~m:64 () in
    let prep (k : Kernels.Kernel.t) =
      let checked = Kernels.Kernel.parse k in
      let nest =
        Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func
          ~params:[ ("num_threads", 4) ]
      in
      (k, checked, nest)
    in
    let heat = prep small_heat in
    let dft = prep small_dft in
    let linreg = prep small_linreg in
    let model (_, checked, nest) () =
      let cfg = Fsmodel.Model.default_config ~threads:4 () in
      ignore (Fsmodel.Model.run cfg ~nest ~checked)
    in
    let predict (k, checked, nest) () =
      let cfg = Fsmodel.Model.default_config ~threads:4 () in
      ignore
        (Fsmodel.Predict.predict ~runs:k.Kernels.Kernel.pred_runs cfg ~nest
           ~checked)
    in
    let simulate (k, _, _) () =
      ignore (Execsim.Run.measure ~threads:4 ~chunk:1 k)
    in
    let tests =
      [
        Test.make ~name:"tab1/heat: full model"
          (Staged.stage (model heat));
        Test.make ~name:"tab2/dft: full model" (Staged.stage (model dft));
        Test.make ~name:"tab3/linreg: full model"
          (Staged.stage (model linreg));
        Test.make ~name:"tab4/heat: predictor" (Staged.stage (predict heat));
        Test.make ~name:"tab5/dft: predictor" (Staged.stage (predict dft));
        Test.make ~name:"tab6/linreg: predictor"
          (Staged.stage (predict linreg));
        Test.make ~name:"fig2/fig8: simulator run"
          (Staged.stage (simulate heat));
        Test.make ~name:"fig6: model with samples"
          (Staged.stage (fun () ->
               let _, checked, nest = heat in
               let cfg = Fsmodel.Model.default_config ~threads:4 () in
               ignore
                 (Fsmodel.Model.run ~record_samples:true cfg ~nest ~checked)));
        Test.make ~name:"frontend: parse+check+lower"
          (Staged.stage (fun () ->
               let k, _, _ = heat in
               let checked = Kernels.Kernel.parse k in
               ignore
                 (Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func
                    ~params:[ ("num_threads", 4) ])));
      ]
    in
    let cfg =
      Benchmark.cfg ~limit:60 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let raw =
      Benchmark.all cfg
        Toolkit.Instance.[ monotonic_clock ]
        (Test.make_grouped ~name:"paper" tests)
    in
    let ols =
      Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Printf.sprintf "%.3f ms" (e /. 1e6)
          | _ -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        rows := [ name; est; r2 ] :: !rows)
      results;
    print_endline
      (Fsmodel.Report.table
         ~header:[ "pipeline (small instance)"; "time/run"; "r²" ]
         (List.sort compare !rows))
  end

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

(* Machine-readable run record: wall-clock per pipeline section plus the
   headline FS counts accumulated in [study_cache].  Hand-rolled printer —
   the numbers are ints/floats and the strings are section ids and kernel
   names, so no escaping is needed. *)
let write_bench_json ~total path =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"quick\": %b,\n" !quick;
  bpf "  \"domains\": %d,\n" !domains;
  bpf "  \"total_seconds\": %.3f,\n" total;
  bpf "  \"sections\": [\n";
  let sections = List.rev !section_times in
  List.iteri
    (fun i (id, dt) ->
      bpf "    { \"id\": %S, \"seconds\": %.3f }%s\n" id dt
        (if i = List.length sections - 1 then "" else ","))
    sections;
  bpf "  ],\n";
  (* sections that did not run leave no key at all (an --only run used
     to emit "attrib_overhead": [], which readers took for a regression
     to zero coverage) *)
  let at = List.rev !attrib_times in
  if at <> [] then begin
    bpf "  \"attrib_overhead\": [\n";
    List.iteri
      (fun i (kernel, fs, t_off, t_on) ->
        bpf
          "    { \"kernel\": %S, \"model_fs\": %d, \"seconds_off\": %.4f, \
           \"seconds_on\": %.4f }%s\n"
          kernel fs t_off t_on
          (if i = List.length at - 1 then "" else ","))
      at;
    bpf "  ],\n"
  end;
  (match !serve_stats with
  | None -> ()
  | Some (n, cold, warm, batch) ->
      bpf "  \"serve\": {\n";
      bpf "    \"requests\": %d,\n" n;
      bpf "    \"cold_seconds\": %.4f,\n" cold;
      bpf "    \"warm_seconds\": %.6f,\n" warm;
      bpf "    \"warm_speedup\": %.1f,\n" (cold /. Float.max 1e-9 warm);
      bpf "    \"batch\": [\n";
      List.iteri
        (fun i (d, bn, dt) ->
          bpf
            "      { \"domains\": %d, \"requests\": %d, \"seconds\": %.4f, \
             \"rps\": %.1f }%s\n"
            d bn dt
            (float_of_int bn /. Float.max 1e-9 dt)
            (if i = List.length batch - 1 then "" else ","))
        batch;
      bpf "    ]\n";
      bpf "  },\n");
  (* cost_model: analytic reuse-distance model vs the simulator.  Schema
     per entry: kernel, threads, pred/sim beyond-L1 accesses, pred/sim
     DRAM fetches, and the wall seconds each path took to decide (the
     analytic path is the whole Reuse.analyze). *)
  let cm = List.rev !cost_model_stats in
  if cm <> [] then begin
    bpf "  \"cost_model\": [\n";
    List.iteri
      (fun i (kernel, threads, pb, sb, pm, sm, t_an, t_sim) ->
        bpf
          "    { \"kernel\": %S, \"threads\": %d, \"pred_beyond_l1\": \
           %.0f, \"sim_beyond_l1\": %.0f, \"pred_mem\": %.0f, \
           \"sim_mem\": %.0f, \"seconds_analytic\": %.4f, \
           \"seconds_sim\": %.4f }%s\n"
          kernel threads pb sb pm sm t_an t_sim
          (if i = List.length cm - 1 then "" else ","))
      cm;
    bpf "  ],\n"
  end;
  let ex = List.rev !exact_stats in
  if ex <> [] then begin
    bpf "  \"exact\": [\n";
    List.iteri
      (fun i (kernel, pairs, upgraded, promoted, t_off, t_on) ->
        bpf
          "    { \"kernel\": %S, \"pairs\": %d, \"upgraded\": %d, \
           \"promoted\": %d, \"seconds_banerjee\": %.4f, \"seconds_exact\": \
           %.4f }%s\n"
          kernel pairs upgraded promoted t_off t_on
          (if i = List.length ex - 1 then "" else ","))
      ex;
    bpf "  ],\n"
  end;
  (* fix: the verified-elimination loop.  Schema per entry: kernel,
     function, reference-engine FS before/after the materialized fix,
     removal fraction, analytic cost ratio (absent without a
     certificate), verified flag; plus the aggregate verified share. *)
  let fx = List.rev !fix_stats in
  if fx <> [] then begin
    bpf "  \"fix\": {\n";
    bpf "    \"kernels\": [\n";
    List.iteri
      (fun i (kernel, func, before, after, removal, ratio, ok) ->
        bpf
          "      { \"kernel\": %S, \"function\": %S, \"fs_before\": %d, \
           \"fs_after\": %d, \"removal\": %.4f, %s\"verified\": %b }%s\n"
          kernel func before after removal
          (match ratio with
          | Some r -> Printf.sprintf "\"cost_ratio\": %.4f, " r
          | None -> "")
          ok
          (if i = List.length fx - 1 then "" else ","))
      fx;
    bpf "    ],\n";
    let verified =
      List.length (List.filter (fun (_, _, _, _, _, _, ok) -> ok) fx)
    in
    bpf "    \"materialized\": %d,\n" (List.length fx);
    bpf "    \"verified\": %d,\n" verified;
    bpf "    \"verified_percent\": %.1f\n"
      (100. *. float_of_int verified /. float_of_int (List.length fx));
    bpf "  },\n"
  end;
  (* sched: distributional verdicts under seeded schedules.  Schema per
     entry: kernel, schedule kind, seed count, mean/stddev/p95/max of
     the per-seed engine N_fs, mean steals per seed, and the wall
     seconds the whole seed sweep took. *)
  let sc = List.rev !sched_stats in
  if sc <> [] then begin
    bpf "  \"sched\": [\n";
    List.iteri
      (fun i (kernel, kind, nseeds, mean, stddev, p95, mx, msteals, dt) ->
        bpf
          "    { \"kernel\": %S, \"schedule\": %S, \"seeds\": %d, \
           \"mean_fs\": %.1f, \"stddev_fs\": %.1f, \"p95_fs\": %d, \
           \"max_fs\": %d, \"mean_steals\": %.1f, \"seconds\": %.4f }%s\n"
          kernel kind nseeds mean stddev p95 mx msteals dt
          (if i = List.length sc - 1 then "" else ","))
      sc;
    bpf "  ],\n"
  end;
  bpf "  \"fs_counts\": [\n";
  let entries =
    Hashtbl.fold
      (fun kernel rows acc ->
        List.fold_left
          (fun acc (r : row) -> (kernel, r) :: acc)
          acc rows)
      study_cache []
    |> List.sort compare
  in
  List.iteri
    (fun i (kernel, (r : row)) ->
      bpf
        "    { \"kernel\": %S, \"threads\": %d, \"model_fs\": %d, \
         \"pred_fs\": %d, \"sim_fs_misses\": %d, \"model_percent\": %.2f, \
         \"measured_percent\": %.2f }%s\n"
        kernel r.threads r.full.Fsmodel.Overhead_percent.n_fs
        r.pred.Fsmodel.Overhead_percent.n_fs
        r.meas.Execsim.Run.fs.Execsim.Run.stats
          .Cachesim.Stats.coherence_false
        r.full.Fsmodel.Overhead_percent.percent
        r.meas.Execsim.Run.percent
        (if i = List.length entries - 1 then "" else ","))
    entries;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Reproduction harness: Tolubaeva, Yan, Chapman — Compile-Time Detection\n\
     of False Sharing via Loop Cost Modeling (2012)%s\n"
    (if !quick then " [quick mode]" else "");
  let t0 = Unix.gettimeofday () in
  section "fig2" "execution time vs chunk size (linear regression)" fig2;
  section "tab1" "measured vs modeled FS overhead — heat diffusion" tab1;
  section "tab2" "measured vs modeled FS overhead — DFT" tab2;
  section "tab3" "measured vs modeled FS overhead — linear regression" tab3;
  section "tab4" "predicted vs modeled FS cases — heat diffusion" tab4;
  section "tab5" "predicted vs modeled FS cases — DFT" tab5;
  section "tab6" "predicted vs modeled FS cases — linear regression" tab6;
  section "fig6" "FS cases grow linearly with chunk runs" fig6;
  section "fig8" "measured/modeled/predicted vs threads — heat" fig8;
  section "fig9" "measured/modeled/predicted vs threads — DFT" fig9;
  section "calib" "fs_cost_factor calibration" calib;
  section "lines" "false sharing vs cache-line size" lines_section;
  section "ablate" "design-choice ablations" ablate;
  section "attrib" "attribution on/off engine A/B" attrib_section;
  section "compare" "compile-time model vs runtime detector" compare_section;
  section "serve" "analysis service: cold vs warm, batch scaling" serve_section;
  section "exact" "two-tier dependence: Banerjee vs the exact tier"
    exact_section;
  section "costmodel" "analytic reuse-distance model vs the simulator"
    cost_model_section;
  section "fix" "verified elimination: materialized fixes re-analyzed"
    fix_section;
  section "sched" "distributional FS verdicts under seeded schedules"
    sched_section;
  section "micro" "bechamel micro-benchmarks" micro;
  let total = Unix.gettimeofday () -. t0 in
  write_bench_json ~total "BENCH.json";
  Printf.printf "\n[total %.1fs over %d domain%s — wrote BENCH.json]\n" total
    !domains
    (if !domains = 1 then "" else "s")
