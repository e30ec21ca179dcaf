type measurement = {
  threads : int;
  chunk : int option;
  sched : (Ompsched.Dispatch.kind * int) option;
  steals : int;
  wall_cycles : float;
  seconds : float;
  per_thread_cycles : float array;
  stats : Cachesim.Stats.t;
}

let overhead = Ompsched.Overhead.default

let coherence ~arch ~threads checked =
  let bytes = Loopir.Layout.total_bytes (Loopir.Layout.make checked) in
  let line = Archspec.Arch.line_bytes arch in
  Cachesim.Coherence.create ~cores:threads ~lines:((bytes + line - 1) / line)
    arch

let measure ?(arch = Archspec.Arch.paper_machine) ?(interleave_window = 4)
    ?(run_init = true) ?chunk ?sched ~threads (kernel : Kernels.Kernel.t) =
  let checked = Kernels.Kernel.parse kernel in
  let coherence = coherence ~arch ~threads checked in
  let cycles = Array.make threads 0. in
  let timing = ref false in
  let sink =
    {
      Interp.mem_access =
        (fun ~tid ~addr ~size ~write ->
          let latency =
            Cachesim.Coherence.access_latency coherence ~core:tid ~addr ~size
              ~write
          in
          if !timing then
            cycles.(tid) <- cycles.(tid) +. float_of_int latency);
      cpu =
        (fun ~tid c -> if !timing then cycles.(tid) <- cycles.(tid) +. c);
      region_begin =
        (fun ~threads:team ->
          if !timing then begin
            (* workers wait at the fork while the master runs ahead *)
            let m = cycles.(0) in
            for t = 1 to min team threads - 1 do
              cycles.(t) <- Float.max cycles.(t) m
            done
          end);
      region_end =
        (fun ~chunks_per_thread ->
          if !timing then begin
            let ovh =
              float_of_int
                (Ompsched.Overhead.parallel_overhead_cycles overhead ~threads
                   ~chunks_per_thread)
            in
            (* implicit barrier at region end *)
            let m = Array.fold_left Float.max 0. cycles +. ovh in
            Array.fill cycles 0 threads m
          end);
    }
  in
  let interp =
    Interp.create ~threads ?chunk_override:chunk ?sched_override:sched
      ~interleave_window ~sink checked
  in
  (match (run_init, kernel.Kernels.Kernel.init_func) with
  | true, Some init -> Interp.exec interp ~func:init
  | true, None | false, _ -> ());
  let before = Cachesim.Stats.copy (Cachesim.Coherence.aggregate_stats coherence) in
  timing := true;
  Interp.exec interp ~func:kernel.Kernels.Kernel.func;
  timing := false;
  let stats =
    Cachesim.Stats.sub (Cachesim.Coherence.aggregate_stats coherence) before
  in
  let wall = Array.fold_left Float.max 0. cycles in
  {
    threads;
    chunk;
    sched;
    steals = Interp.steals interp;
    wall_cycles = wall;
    seconds = Archspec.Arch.cycles_to_seconds arch wall;
    per_thread_cycles = cycles;
    stats;
  }

type comparison = { fs : measurement; nfs : measurement; percent : float }

let measured_fs_percent ?arch ?interleave_window ?fs_chunk ?nfs_chunk ~threads
    (kernel : Kernels.Kernel.t) =
  let fs_chunk =
    Option.value ~default:kernel.Kernels.Kernel.fs_chunk fs_chunk
  in
  let nfs_chunk =
    Option.value ~default:kernel.Kernels.Kernel.nfs_chunk nfs_chunk
  in
  let fs = measure ?arch ?interleave_window ~chunk:fs_chunk ~threads kernel in
  let nfs = measure ?arch ?interleave_window ~chunk:nfs_chunk ~threads kernel in
  let percent =
    if fs.wall_cycles <= 0. then 0.
    else 100. *. (fs.wall_cycles -. nfs.wall_cycles) /. fs.wall_cycles
  in
  { fs; nfs; percent }

let pp_measurement ppf m =
  match m.sched with
  | Some (k, seed) ->
      Format.fprintf ppf
        "@[<v>%d threads, schedule(%s) seed %d%s: wall %.0f cycles (%.4f \
         s)@,%a@]"
        m.threads
        (Ompsched.Dispatch.kind_name k)
        seed
        (if m.steals > 0 then Printf.sprintf ", %d steal(s)" m.steals else "")
        m.wall_cycles m.seconds Cachesim.Stats.pp m.stats
  | None ->
      Format.fprintf ppf
        "@[<v>%d threads, chunk %s: wall %.0f cycles (%.4f s)@,%a@]" m.threads
        (match m.chunk with Some c -> string_of_int c | None -> "(pragma)")
        m.wall_cycles m.seconds Cachesim.Stats.pp m.stats
