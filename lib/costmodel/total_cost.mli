(** The combined cost model — paper Eq. 1:

    [Total_c = FalseSharing_c + Machine_c + Cache_c + TLB_c
             + Parallel_Overhead_c + Loop_Overhead_c]

    All terms are wall-clock (critical-path) cycles for the whole loop nest
    executed by a team of [threads]: per-iteration terms are multiplied by
    the maximum number of innermost iterations any single thread executes;
    the false-sharing term converts the FS-case count of the paper's model
    (supplied by the caller, normally {!Fsmodel}) into cycles at one
    coherence miss per case, divided across the team. *)

type breakdown = {
  machine_cycles : float;
  cache_cycles : float;
  tlb_cycles : float;
  contention_cycles : float;
      (** shared-cache + bandwidth interference (§VI extension); 0 unless
          [~contention:true] *)
  parallel_overhead_cycles : float;
  loop_overhead_cycles : float;
  false_sharing_cycles : float;
  total_cycles : float;
  seconds : float;
  iters_per_thread : int;  (** innermost iterations on the busiest thread *)
  regions : int;  (** number of parallel-region entries (outer trips) *)
}

val default_fs_cost_factor : float
(** Effective fraction of one coherence-miss latency charged per modeled FS
    case.  The paper's model counts one FS case per φ-positive insertion —
    an adversarial lockstep count; on real hardware consecutive cases on
    the same line batch into one transfer and out-of-order execution
    overlaps part of the stall, so one counted case costs a fraction of a
    full [coherence_latency].  Calibrated once against the MESI execution
    simulator (see DESIGN.md), then held fixed for all kernels. *)

val compute :
  ?fs_cost_factor:float ->
  ?contention:bool ->
  ?cache_cycles:float ->
  arch:Archspec.Arch.t ->
  threads:int ->
  fs_cases:int ->
  env:(string -> int option) ->
  checked:Minic.Typecheck.checked ->
  Loopir.Loop_nest.t ->
  breakdown
(** [env] must bind every parameter in the nest's bounds; bind
    ["num_threads"] to [threads] yourself if the source uses it.
    [cache_cycles], when given, replaces the {!Cache_model} heuristic's
    per-thread cache-stall total — the hook {!Analysis.Reuse} folds its
    reuse-distance miss prediction through (total cycles for the busiest
    thread, beyond-L1 penalties only). *)

val fs_percent : fs:breakdown -> float
(** Share of the total time attributed to false sharing, in percent. *)

val overhead_percent :
  fs_cost_factor:float ->
  arch:Archspec.Arch.t ->
  threads:int ->
  n_fs:int ->
  n_nfs:int ->
  breakdown ->
  float
(** Paper Eq. 5: the cycles the FS-prone chunking's [n_fs] cases cost
    beyond the optimized chunking's [n_nfs] — each case charged as in
    {!compute}'s false-sharing term — as a percentage of the FS-prone
    chunking's [breakdown] total ([0.] when that total is not
    positive). *)

type eq1 = {
  loop_c : float;  (** parallel + loop overhead *)
  cache_c : float;  (** cache + TLB + contention stalls *)
  machine_c : float;  (** in-core execution *)
  fs_c : float;  (** false-sharing coherence stalls *)
  total : float;
}
(** Paper Eq. 1 folded to its four reported terms:
    [Total_c = Loop_c + Cache_c + Machine_c + FS_c]. *)

val eq1_of : breakdown -> eq1

val pp_eq1 : Format.formatter -> eq1 -> unit
(** One line: each term with its share of the total in percent. *)

val pp : Format.formatter -> breakdown -> unit
