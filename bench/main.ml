(* Artifact generator: regenerates the tables and figures of the paper's
   evaluation (§IV) on the simulated 48-core machine, and the extensions
   EXPERIMENTS.md records (calibration, cache-line size, ablations, the
   runtime-detector comparison, the exact dependence tier, the analytic
   cost model, seeded schedules).  [sections] at the end of this file
   lists them; --help prints the list.

   Usage: main.exe [--quick] [--only ID] [--jobs N]

   "Measured" columns come from the MESI execution simulator (the repo's
   stand-in for the paper's hardware testbed; see DESIGN.md), so absolute
   seconds differ from the paper — shapes and model-vs-measured agreement
   are the reproduction targets.  Paper values are printed alongside where
   the paper reports them.

   Independent configuration sweeps (per-thread-count studies, chunk
   sweeps) run through Fsmodel.Par_sweep, so they spread over OCaml
   domains when more than one is available; --jobs pins the count
   (results are identical at any value).  Wall-clock per section and the
   headline counts are also written to BENCH.json (schema: DESIGN.md
   §12).  Timing the analysis is perfbench's job: apart from the section
   wall clock, the only timings here are attrib's on/off A/B. *)

let quick = ref false
let domains = ref (Fsmodel.Par_sweep.recommended_domains ())

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

(* BENCH.json blocks of the sections that ran, latest first: a key and
   one object body per entry *)
let json_blocks : (string * string list) list ref = ref []
let record key entries = json_blocks := (key, entries) :: !json_blocks

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
  let rows, entries =
    List.split @@ List.map
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
        ( [ kernel.Kernels.Kernel.name;
            kcount !fs;
            Printf.sprintf "%.4f" t_off;
            Printf.sprintf "%.4f" t_on;
            Printf.sprintf "%.1f%%" (100. *. (t_on -. t_off) /. Float.max 1e-9 t_off) ],
          Printf.sprintf
            "\"kernel\": %S, \"model_fs\": %d, \"seconds_off\": %.4f, \
             \"seconds_on\": %.4f"
            kernel.Kernels.Kernel.name !fs t_off t_on ))
      kernels
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "N_fs"; "attrib off (s)"; "attrib on (s)"; "overhead" ]
       rows);
  record "attrib_overhead" entries

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
(* exact                                                               *)
(* ------------------------------------------------------------------ *)

(* Decisiveness of the exact dependence tier: every registry kernel's
   reference pairs classified with the tier off (Banerjee only), then
   with the default budget.  "upgraded" counts pairs whose Banerjee
   verdict was Unknown and became definite; "promoted" counts pairs
   whose may-claim was certified as a must with a witness. *)
let exact_section () =
  let threads = 8 in
  let params = [ ("num_threads", threads) ] in
  Printf.printf
    "Two-tier dependence analysis over every bundled kernel: Banerjee\n\
     only (--exact off) vs the default exact tier.  \"upgraded\" pairs\n\
     went from Unknown to a definite verdict; \"promoted\" pairs had a\n\
     may-claim certified as a must-conflict with a witness.\n\n";
  let rows, entries =
    List.split @@ List.map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        let nest =
          Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func ~params
        in
        let off =
          Analysis.Depend.pairs ~line_bytes:64 ~params ~exact:`Off nest
        in
        let on = Analysis.Depend.pairs ~line_bytes:64 ~params nest in
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
        ( [
            kernel.Kernels.Kernel.name;
            string_of_int (List.length on);
            string_of_int upgraded;
            string_of_int promoted;
          ],
          Printf.sprintf
            "\"kernel\": %S, \"pairs\": %d, \"upgraded\": %d, \"promoted\": %d"
            kernel.Kernels.Kernel.name (List.length on) upgraded promoted ))
      (Kernels.Registry.all ())
  in
  print_endline
    (Fsmodel.Report.table
       ~header:[ "kernel"; "pairs"; "upgraded"; "promoted" ]
       rows);
  record "exact" entries

(* ------------------------------------------------------------------ *)
(* cost model: analytic reuse-distance prediction vs the simulator      *)
(* ------------------------------------------------------------------ *)

(* kernel, threads, predicted/simulated beyond-L1 traffic and DRAM
   fetches *)
let cost_model_section () =
  let arch = Archspec.Arch.small_test_machine in
  Printf.printf
    "Static reuse-distance prediction (Analysis.Reuse, zero simulation)\n\
     vs the execution-driven cache simulator on every bundled kernel at\n\
     the small test machine.  \"beyond-L1\" is the predicted traffic the\n\
     Eq. 1 cache term prices.\n\n";
  let rows, entries =
    List.split @@ List.concat_map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        List.map
          (fun threads ->
            let params = [ ("num_threads", threads) ] in
            let nest =
              Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
                ~params
            in
            let a =
              Analysis.Reuse.analyze ~arch ~threads ~params ~checked nest
            in
            let p = a.Analysis.Reuse.prediction in
            let m = Execsim.Run.measure ~arch ~threads kernel in
            let st = m.Execsim.Run.stats in
            let sim_acc = float_of_int (Cachesim.Stats.accesses st) in
            let sim_beyond =
              sim_acc -. float_of_int st.Cachesim.Stats.l1_hits
            in
            let sim_mem = float_of_int st.Cachesim.Stats.mem_fetches in
            let pred_beyond =
              p.Analysis.Reuse.accesses -. p.Analysis.Reuse.l1_hits
            in
            let err p s =
              if s <= 0. then "-"
              else Printf.sprintf "%+.1f%%" (100. *. (p -. s) /. s)
            in
            ( [
                kernel.Kernels.Kernel.name;
                string_of_int threads;
                Printf.sprintf "%.0f" pred_beyond;
                Printf.sprintf "%.0f" sim_beyond;
                err pred_beyond sim_beyond;
                Printf.sprintf "%.0f" p.Analysis.Reuse.mem_fetches;
                Printf.sprintf "%.0f" sim_mem;
              ],
              Printf.sprintf
                "\"kernel\": %S, \"threads\": %d, \"pred_beyond_l1\": %.0f, \
                 \"sim_beyond_l1\": %.0f, \"pred_mem\": %.0f, \"sim_mem\": \
                 %.0f"
                kernel.Kernels.Kernel.name threads pred_beyond sim_beyond
                p.Analysis.Reuse.mem_fetches sim_mem ))
          [ 2; 4 ])
      (Kernels.Registry.all ())
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "t"; "pred >L1"; "sim >L1"; "err"; "pred mem";
           "sim mem" ]
       rows);
  record "cost_model" entries

(* ------------------------------------------------------------------ *)
(* sched: distributional FS verdicts under seeded schedules            *)
(* ------------------------------------------------------------------ *)

(* kernel, schedule kind, seed count, mean/stddev/p95/max of the
   per-seed engine N_fs, mean steals per seed *)
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
  let rows, entries =
    List.split @@ List.concat_map
      (fun (kernel : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse kernel in
        let nest =
          Loopir.Lower.lower checked ~func:kernel.Kernels.Kernel.func
            ~params:[ ("num_threads", threads) ]
        in
        let cfg = Fsmodel.Model.default_config ~threads () in
        List.map
          (fun kind ->
            let d =
              Analysis.Dist.run ~domains:!domains ~seeds ~kind cfg ~nest
                ~checked
            in
            ( [
                kernel.Kernels.Kernel.name;
                Ompsched.Dispatch.kind_name kind;
                Printf.sprintf "%.1f" d.Analysis.Dist.mean;
                Printf.sprintf "%.1f" d.Analysis.Dist.stddev;
                string_of_int d.Analysis.Dist.p95;
                Printf.sprintf "%d..%d" d.Analysis.Dist.min_fs
                  d.Analysis.Dist.max_fs;
                Printf.sprintf "%.1f" d.Analysis.Dist.mean_steals;
              ],
              Printf.sprintf
                "\"kernel\": %S, \"schedule\": %S, \"seeds\": %d, \
                 \"mean_fs\": %.1f, \"stddev_fs\": %.1f, \"p95_fs\": %d, \
                 \"max_fs\": %d, \"mean_steals\": %.1f"
                kernel.Kernels.Kernel.name
                (Ompsched.Dispatch.kind_name kind)
                nseeds d.Analysis.Dist.mean d.Analysis.Dist.stddev
                d.Analysis.Dist.p95 d.Analysis.Dist.max_fs
                d.Analysis.Dist.mean_steals ))
          kinds)
      kernels
  in
  print_endline
    (Fsmodel.Report.table
       ~header:
         [ "kernel"; "schedule"; "mean fs"; "stddev"; "p95"; "range";
           "steals/seed" ]
       rows);
  record "sched" entries

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

(* Machine-readable run record: wall-clock per section, the blocks the
   sections recorded, and the headline FS counts accumulated in
   [study_cache].  Sections that did not run leave no key at all.
   Hand-rolled printer — the numbers are ints/floats and the strings are
   section ids, kernel names and schedule kinds, so no escaping is
   needed. *)
let write_bench_json ~total ~times path =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let array ?(last = false) key entries =
    bpf "  %S: [\n" key;
    List.iteri
      (fun i e ->
        bpf "    { %s }%s\n" e
          (if i = List.length entries - 1 then "" else ","))
      entries;
    bpf "  ]%s\n" (if last then "" else ",")
  in
  bpf "{\n";
  bpf "  \"quick\": %b,\n" !quick;
  bpf "  \"domains\": %d,\n" !domains;
  bpf "  \"total_seconds\": %.3f,\n" total;
  array "sections"
    (List.map
       (fun (id, dt) -> Printf.sprintf "\"id\": %S, \"seconds\": %.3f" id dt)
       times);
  List.iter (fun (key, entries) -> array key entries) (List.rev !json_blocks);
  let counts =
    Hashtbl.fold
      (fun kernel rows acc ->
        List.fold_left
          (fun acc (r : row) -> (kernel, r) :: acc)
          acc rows)
      study_cache []
    |> List.sort compare
  in
  array ~last:true "fs_counts"
    (List.map
       (fun (kernel, (r : row)) ->
         Printf.sprintf
           "\"kernel\": %S, \"threads\": %d, \"model_fs\": %d, \
            \"pred_fs\": %d, \"sim_fs_misses\": %d, \"model_percent\": %.2f, \
            \"measured_percent\": %.2f"
           kernel r.threads r.full.Fsmodel.Overhead_percent.n_fs
           r.pred.Fsmodel.Overhead_percent.n_fs
           r.meas.Execsim.Run.fs.Execsim.Run.stats
             .Cachesim.Stats.coherence_false
           r.full.Fsmodel.Overhead_percent.percent
           r.meas.Execsim.Run.percent)
       counts);
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

(* The artifacts, in run order: id (for --only), title, generator *)
let sections =
  [
    ("fig2", "execution time vs chunk size (linear regression)", fig2);
    ("tab1", "measured vs modeled FS overhead — heat diffusion", tab1);
    ("tab2", "measured vs modeled FS overhead — DFT", tab2);
    ("tab3", "measured vs modeled FS overhead — linear regression", tab3);
    ("tab4", "predicted vs modeled FS cases — heat diffusion", tab4);
    ("tab5", "predicted vs modeled FS cases — DFT", tab5);
    ("tab6", "predicted vs modeled FS cases — linear regression", tab6);
    ("fig6", "FS cases grow linearly with chunk runs", fig6);
    ("fig8", "measured/modeled/predicted vs threads — heat", fig8);
    ("fig9", "measured/modeled/predicted vs threads — DFT", fig9);
    ("calib", "fs_cost_factor calibration", calib);
    ("lines", "false sharing vs cache-line size", lines_section);
    ("ablate", "design-choice ablations", ablate);
    ("attrib", "attribution on/off engine A/B", attrib_section);
    ("compare", "compile-time model vs runtime detector", compare_section);
    ("exact", "two-tier dependence: Banerjee vs the exact tier",
     exact_section);
    ("costmodel", "analytic reuse-distance model vs the simulator",
     cost_model_section);
    ("sched", "distributional FS verdicts under seeded schedules",
     sched_section);
  ]

let usage = "usage: main.exe [--quick] [--only ID] [--jobs N]\n"
let ids = String.concat " " (List.map (fun (id, _, _) -> id) sections)

let () =
  let only = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--help" :: _ ->
        print_string usage;
        print_endline "sections (--only ID runs one):";
        List.iter
          (fun (id, title, _) -> Printf.printf "  %-9s  %s\n" id title)
          sections;
        exit 0
    | "--only" :: id :: rest ->
        if not (List.exists (fun (s, _, _) -> s = id) sections) then begin
          Printf.eprintf "unknown section %s; valid IDs: %s\n" id ids;
          exit 2
        end;
        only := Some id;
        parse rest
    | (("--jobs" | "-j") as flag) :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> domains := d
        | _ ->
            Printf.eprintf "%s expects a positive integer, got %s\n" flag n;
            exit 2);
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n%s" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "Reproduction harness: Tolubaeva, Yan, Chapman — Compile-Time Detection\n\
     of False Sharing via Loop Cost Modeling (2012)%s\n"
    (if !quick then " [quick mode]" else "");
  let t0 = Unix.gettimeofday () in
  let times =
    List.filter_map
      (fun (id, title, run) ->
        if Option.fold ~none:true ~some:(String.equal id) !only then begin
          Printf.printf "\n== %s: %s ==\n\n" id title;
          let t = Unix.gettimeofday () in
          run ();
          let dt = Unix.gettimeofday () -. t in
          Printf.printf "\n[%s done in %.1fs]\n" id dt;
          Some (id, dt)
        end
        else None)
      sections
  in
  let total = Unix.gettimeofday () -. t0 in
  write_bench_json ~total ~times "BENCH.json";
  Printf.printf "\n[total %.1fs over %d domain%s — wrote BENCH.json]\n" total
    !domains
    (if !domains = 1 then "" else "s")
