(** The "measured" side of the paper's evaluation, on the simulated
    machine: execute a kernel through {!Interp}, feed every memory access
    into the MESI simulator, and account per-thread cycles
    (CPU + memory stalls + OpenMP overheads).  Wall time is the barrier-
    synchronized critical path.

    [measured_fs_percent] reproduces the left-hand side of paper Eq. 5:
    [(T_fs − T_nfs) / T_fs]. *)

type measurement = {
  threads : int;
  chunk : int option;  (** the override used; [None] = the pragma's clause *)
  sched : (Ompsched.Dispatch.kind * int) option;
      (** the seeded schedule replayed, when one overrode the pragma *)
  steals : int;  (** steal events (0 unless work stealing ran) *)
  wall_cycles : float;
  seconds : float;
  per_thread_cycles : float array;
  stats : Cachesim.Stats.t;  (** kernel-phase aggregate (init excluded) *)
}

val coherence :
  arch:Archspec.Arch.t ->
  threads:int ->
  Minic.Typecheck.checked ->
  Cachesim.Coherence.t
(** A MESI model with one core per thread whose address space is the
    program's simulated memory ({!Interp.memory}), every line untouched.
    @raise Invalid_argument above {!Cachesim.Coherence.max_cores}
    threads. *)

val measure :
  ?arch:Archspec.Arch.t ->
  ?interleave_window:int ->
  ?run_init:bool ->
  ?chunk:int ->
  ?sched:Ompsched.Dispatch.kind * int ->
  threads:int ->
  Kernels.Kernel.t ->
  measurement
(** Run (optionally) the kernel's init function untimed-but-traced (warm
    caches, realistic first-touch), then the kernel function timed.
    [chunk] overrides the pragma's chunk size; omitted, the pragma's own
    schedule clause applies unchanged.  [sched] replays a seeded
    {!Ompsched.Dispatch} plan instead of the pragma's schedule — the
    simulated coherence traffic then corresponds to the same execution
    the cost model counts for that (kind, seed).  [interleave_window]
    defaults to 4 parallel iterations between thread switches. *)

type comparison = {
  fs : measurement;  (** the FS-prone chunk *)
  nfs : measurement;  (** the optimized chunk *)
  percent : float;  (** measured FS effect on execution time, % *)
}

val measured_fs_percent :
  ?arch:Archspec.Arch.t ->
  ?interleave_window:int ->
  ?fs_chunk:int ->
  ?nfs_chunk:int ->
  threads:int ->
  Kernels.Kernel.t ->
  comparison
(** Chunk sizes default to the kernel's paper configuration. *)

val pp_measurement : Format.formatter -> measurement -> unit
