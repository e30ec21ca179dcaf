(** Static reuse-distance profiles and the fully analytic cache cost model.

    Instead of replaying the access stream through {!Cachesim.Lru_stack},
    this module derives a symbolic stack-distance histogram per reference
    group directly from the affine footprints of the loop nest (the
    PPT-Multicore construction): accesses fall into a {e near} bin (spatial
    reuse inside the current line, distance = other groups touched in
    between), a {e far} bin (temporal reuse carried by an enclosing loop,
    distance = the footprint swept between reuses), and a {e cold} bin
    (first touches, infinite distance).  An LRU cache of [W] lines hits
    exactly the accesses with distance [< W], so the histogram folds
    through {!Archspec.Arch} capacities into hit counts per level with no
    simulation.

    Multi-threaded interleaving enters twice, following the
    [schedule(static, chunk)] decomposition of {!Ompsched.Schedule}:
    the per-thread footprint of the parallel loop shrinks to the dealt-out
    share (with [sigma] threads co-resident on each boundary line), and the
    shared L3 sees the socket's interleaved streams, stretching private
    distances by {!Archspec.Arch.l3_sharers}. *)

type level = L1 | L2 | L3 | Mem

val level_name : level -> string

type bin = {
  label : string;  (** ["near"], ["far"] or ["cold"] *)
  distance : int option;  (** LRU stack distance in lines; [None] = cold *)
  count : float;  (** accesses in this bin, per (busiest) thread *)
  level : level;  (** cache level serving the bin under LRU *)
}

type co_service = Co_l3 | Co_c2c | Co_mem
(** How the [sigma - 1] co-touches of a thread-shared line are served:
    from the shared L3 (read-only lines), from the writer's still-resident
    dirty copy (c2c), or from DRAM again (the interleaving evicted the
    copy before the co-touch, forcing writeback + refetch). *)

type group_profile = {
  leader_repr : string;  (** source form of the group leader *)
  members : int;  (** references folded into the group *)
  has_write : bool;
  sigma : int;  (** threads whose shares touch each of its lines *)
  co : co_service;
  bins : bin list;
}

type prediction = {
  threads : int;
  accesses : float;  (** machine-wide reference events *)
  l1_hits : float;
  l2_hits : float;
  l3_hits : float;
  c2c_transfers : float;  (** lines sourced from a remote dirty copy *)
  mem_fetches : float;  (** DRAM line fetches, machine-wide *)
  miss_rate : float;  (** beyond-L1 share of [accesses], in [0,1] *)
  cache_cycles : float;
      (** stall cycles beyond L1 on the busiest thread — the value to feed
          {!Costmodel.Total_cost.compute}'s [cache_cycles] hook *)
  groups : group_profile list;
}
(** [l1_hits + l2_hits + l3_hits + c2c_transfers + mem_fetches = accesses]
    by construction (conservation; the fuzz oracle checks it). *)

val predict :
  ?arch:Archspec.Arch.t ->
  ?chunk:int ->
  threads:int ->
  env:(string -> int option) ->
  Loopir.Loop_nest.t ->
  prediction
(** Pure histogram extraction — no simulator, no engine.  [chunk]
    overrides the pragma's chunk size; [env] must bind every parameter in
    the bounds.  The co-touch residency horizon is {!Execsim.Interp}'s
    default window of 4 parallel iterations. *)

type analytic = {
  prediction : prediction;
  breakdown : Costmodel.Total_cost.breakdown;
      (** Eq. 1 with [cache_cycles] taken from [prediction] *)
  eq1 : Costmodel.Total_cost.eq1;
  fs_cases : int option;
      (** the certified {!Closed_form} count; [None] when no certificate
          applies — the analytic path never falls back to the engine *)
  fs_note : string;  (** certificate regime, or why none applied *)
}

val analyze :
  ?arch:Archspec.Arch.t ->
  ?contention:bool ->
  ?chunk:int ->
  ?closed:Closed_form.result ->
  threads:int ->
  params:(string * int) list ->
  checked:Minic.Typecheck.checked ->
  Loopir.Loop_nest.t ->
  analytic
(** The full analytic [Total_c]: reuse-distance cache term, closed-form FS
    term, {!Costmodel} machine/TLB/overhead terms.  Calls neither
    {!Fsmodel.Model.run} nor any simulator ({!Fsmodel.Model.run_count} is
    unchanged across it — tests enforce this).

    [closed] is the caller's {!Closed_form.estimate} of the nest as passed,
    under [Model.default_config ~arch ~threads] with [chunk] and [params]
    — the count a linter already holds — so the closed form is evaluated
    once per (configuration, nest).  It is used whenever the [chunk]
    override cannot change the estimate, that is unless the override turns
    a dynamic or guided pragma static; the result is the same as without
    it. *)

type overhead = {
  threads : int;
  fs_chunk : int;
  nfs_chunk : int;
  n_fs : int;  (** closed-form FS cases at [fs_chunk] *)
  n_nfs : int;  (** closed-form FS cases at [nfs_chunk] *)
  percent : float;  (** excess FS cycles as a share of analytic [Total_c] *)
  analytic : analytic;  (** the [fs_chunk] execution's breakdown *)
}

val overhead :
  ?arch:Archspec.Arch.t ->
  ?contention:bool ->
  threads:int ->
  fs_chunk:int ->
  nfs_chunk:int ->
  func:string ->
  Minic.Typecheck.checked ->
  overhead option
(** Analytic analogue of {!Fsmodel.Overhead_percent.analyze}: [None]
    unless {!Closed_form} certifies both chunkings (the engine-backed path
    is then the only option).  Each chunking is estimated once, and
    [nfs_chunk] not at all when [fs_chunk] has no certificate. *)

val overhead_or_analyze :
  ?arch:Archspec.Arch.t ->
  ?contention:bool ->
  threads:int ->
  fs_chunk:int ->
  nfs_chunk:int ->
  checked:Minic.Typecheck.checked ->
  Loopir.Loop_nest.t ->
  overhead option * analytic
(** The analytic report of [fsdetect analyze] on the nest {!overhead}
    lowers ([num_threads] bound to [threads]): {!overhead} and its
    breakdown when both chunkings certify, otherwise [None] and {!analyze}
    at [fs_chunk].  [fs_chunk]'s closed form is evaluated once either
    way, where {!overhead} followed by {!analyze} evaluates it twice. *)

val pp_bin : Format.formatter -> bin -> unit
val pp_prediction : Format.formatter -> prediction -> unit
val pp_analytic : Format.formatter -> analytic -> unit
