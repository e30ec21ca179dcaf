type breakdown = {
  machine_cycles : float;
  cache_cycles : float;
  tlb_cycles : float;
  contention_cycles : float;
  parallel_overhead_cycles : float;
  loop_overhead_cycles : float;
  false_sharing_cycles : float;
  total_cycles : float;
  seconds : float;
  iters_per_thread : int;
  regions : int;
}

(* Calibrated once against the MESI execution simulator: geometric mean of
   the per-configuration optimal factors for the heat and DFT kernels over
   2..48 threads (bench/main.exe --only calib reproduces the fit). *)
let default_fs_cost_factor = 0.6

(* each FS case costs an effective fraction of one coherence miss; stalls
   spread across the team *)
let fs_cycles ~fs_cost_factor ~(arch : Archspec.Arch.t) ~threads cases =
  float_of_int cases
  *. float_of_int arch.Archspec.Arch.coherence_latency
  *. fs_cost_factor
  /. float_of_int threads

let compute ?(fs_cost_factor = default_fs_cost_factor) ?(contention = false)
    ?cache_cycles:provided_cache_cycles ~(arch : Archspec.Arch.t) ~threads
    ~fs_cases ~env ~checked (nest : Loopir.Loop_nest.t) =
  let trips = Cache_model.trips_of_nest ~env nest in
  let d = nest.Loopir.Loop_nest.parallel_depth in
  let trip_at i = snd (List.nth trips i) in
  let regions =
    let rec go i acc = if i >= d then acc else go (i + 1) (acc * trip_at i) in
    go 0 1
  in
  let parallel_trip = trip_at d in
  let inner_per_parallel =
    let rec go i acc =
      if i >= List.length trips then acc else go (i + 1) (acc * trip_at i)
    in
    go (d + 1) 1
  in
  let chunk =
    match Loopir.Loop_nest.chunk_spec nest with
    | Some c -> c
    | None -> Ompsched.Schedule.block_chunk ~threads ~total:parallel_trip
  in
  let sched = Ompsched.Schedule.make ~threads ~chunk ~total:parallel_trip in
  let max_par_iters = Ompsched.Schedule.max_steps_per_thread sched in
  let iters_per_thread = regions * max_par_iters * inner_per_parallel in
  let proc =
    Processor_model.of_nest checked ~core:arch.Archspec.Arch.core nest
  in
  let tlb = Tlb_model.analyze ~arch ~env nest in
  let fpt = float_of_int iters_per_thread in
  let machine_cycles = proc.Processor_model.cycles_per_iter *. fpt in
  let cache_cycles =
    match provided_cache_cycles with
    | Some c -> c
    | None -> (Cache_model.analyze ~arch ~env nest).Cache_model.cycles_per_iter *. fpt
  in
  let tlb_cycles = tlb.Tlb_model.cycles_per_iter *. fpt in
  let contention_cycles =
    if not contention then 0.
    else
      (Contention.analyze ~arch ~threads ~env ~checked nest)
        .Contention.cycles_per_iter *. fpt
  in
  let chunks_per_thread = (max_par_iters + chunk - 1) / chunk in
  let parallel_overhead_cycles =
    float_of_int
      (regions
      * Ompsched.Overhead.parallel_overhead_cycles Ompsched.Overhead.default
          ~threads ~chunks_per_thread)
  in
  let loop_overhead_cycles =
    float_of_int
      (Ompsched.Overhead.loop_overhead_cycles Ompsched.Overhead.default
         ~iters:iters_per_thread)
  in
  let false_sharing_cycles =
    fs_cycles ~fs_cost_factor ~arch ~threads fs_cases
  in
  let total_cycles =
    machine_cycles +. cache_cycles +. tlb_cycles +. contention_cycles
    +. parallel_overhead_cycles +. loop_overhead_cycles
    +. false_sharing_cycles
  in
  {
    machine_cycles;
    cache_cycles;
    tlb_cycles;
    contention_cycles;
    parallel_overhead_cycles;
    loop_overhead_cycles;
    false_sharing_cycles;
    total_cycles;
    seconds = Archspec.Arch.cycles_to_seconds arch total_cycles;
    iters_per_thread;
    regions;
  }

let fs_percent ~fs =
  if fs.total_cycles <= 0. then 0.
  else 100. *. fs.false_sharing_cycles /. fs.total_cycles

let overhead_percent ~fs_cost_factor ~arch ~threads ~n_fs ~n_nfs b =
  let excess =
    fs_cycles ~fs_cost_factor ~arch ~threads (max 0 (n_fs - n_nfs))
  in
  if b.total_cycles <= 0. then 0. else 100. *. excess /. b.total_cycles

type eq1 = {
  loop_c : float;
  cache_c : float;
  machine_c : float;
  fs_c : float;
  total : float;
}

let eq1_of b =
  {
    loop_c = b.parallel_overhead_cycles +. b.loop_overhead_cycles;
    cache_c = b.cache_cycles +. b.tlb_cycles +. b.contention_cycles;
    machine_c = b.machine_cycles;
    fs_c = b.false_sharing_cycles;
    total = b.total_cycles;
  }

let eq1_percent e term = if e.total <= 0. then 0. else 100. *. term /. e.total

let pp_eq1 ppf e =
  Format.fprintf ppf
    "@[<v>Total_c %.0f cy = Loop_c %.0f (%.1f%%) + Cache_c %.0f (%.1f%%) + \
     Machine_c %.0f (%.1f%%) + FS_c %.0f (%.1f%%)@]"
    e.total e.loop_c (eq1_percent e e.loop_c) e.cache_c
    (eq1_percent e e.cache_c) e.machine_c (eq1_percent e e.machine_c) e.fs_c
    (eq1_percent e e.fs_c)

let pp ppf b =
  Format.fprintf ppf
    "@[<v>total %.0f cycles (%.4f s), %d iters/thread, %d region(s)@,\
     machine %.0f | cache %.0f | tlb %.0f | contention %.0f | par-ovh %.0f \
     | loop-ovh %.0f | false-sharing %.0f@]"
    b.total_cycles b.seconds b.iters_per_thread b.regions b.machine_cycles
    b.cache_cycles b.tlb_cycles b.contention_cycles
    b.parallel_overhead_cycles b.loop_overhead_cycles b.false_sharing_cycles
