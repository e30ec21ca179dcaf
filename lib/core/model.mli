(** The compile-time false-sharing cost model (paper §III): evaluates the
    loop nest symbolically — [all_iterations / num_threads] lockstep steps,
    each performing steps 2–4 (ownership lists, stack-distance update,
    1-to-All detection) — and returns the total number of FS cases.

    Threads advance in lockstep, one innermost iteration per step, through
    their [schedule(static, chunk)] shares, or through a seed-replayed
    dispatch plan (see [config.sched]) — the same walk either way, only
    the deal differs; sequential loops enclosing the parallel loop are
    executed in order (cache states persist across them).  Inner loop
    bounds are evaluated per region with the parallel variable at its
    lower bound (rectangular-inner assumption). *)

type stack_policy =
  | Level_l1  (** stack sized as the private L1 — the paper's setting *)
  | Level_l2
  | Lines of int
  | Unbounded  (** ablation: no eviction (stale lines accumulate) *)

type config = {
  arch : Archspec.Arch.t;
  threads : int;
  chunk : int option;  (** overrides the pragma's chunk size when given *)
  params : (string * int) list;
      (** bindings for free identifiers in bounds; bind ["num_threads"]
          consistently with [threads] *)
  stack : stack_policy;
  invalidate_on_write : bool;
      (** ablation: remove a written line from other threads' states
          (the paper's model does not) *)
  sched : (Ompsched.Dispatch.kind * int) option;
      (** drive the parallel loop with a seed-replayed dynamic, guided or
          work-stealing plan instead of the static deal.  The second
          component is the replay seed.  [None] (the default) keeps the
          paper's [schedule(static)] path, except that a
          [schedule(dynamic)] / [schedule(guided)] pragma in the source
          is replayed at seed 0. *)
}

val default_config :
  ?arch:Archspec.Arch.t -> threads:int -> unit -> config
(** Paper machine, pragma chunk, L1 stack, no invalidation;
    [params = \[("num_threads", threads)\]]. *)

val dispatch :
  config -> Loopir.Loop_nest.t -> (Ompsched.Dispatch.kind * int) option
(** The dispatcher {!run} drives the parallel loop with, as (kind, replay
    seed): [config.sched] when given; otherwise a [schedule(dynamic)] or
    [schedule(guided)] pragma replayed at seed 0, its granule
    [config.chunk], else the pragma's chunk, else 1; [None] for the
    static deal. *)

type run_sample = { chunk_run : int; cumulative_fs : int }

type engine = [ `Fast | `Reference ]
(** [`Fast] (the default) is the allocation-free engine: ownership lists
    strength-reduced through an incremental cursor into a reused buffer,
    inner indices advanced by an odometer instead of per-step div/mod,
    and FS counting through {!Fs_counter}, which finds each thread's
    state for a line by array index in paged (line, thread) slots and
    counts the line's writers by popcount.  Both engines map a byte
    address to its line by floor division
    ({!Archspec.Cache_geom.line_shift}), so an address below the first
    global lands on a negative line, as in the closed form.
    [`Reference] is the direct transcription of the paper's procedure:
    per-step div/mod index decomposition, a freshly built
    {!Ownership.lines} list per iteration, and
    {!Detect.fs_cases_for_insert} over per-thread
    {!Thread_cache_state.t} stacks; it exists as the oracle the fast
    engine is property-checked against.  Each engine is one lockstep
    traversal serving the static deal and replayed plans, with and
    without attribution.  Both produce identical results. *)

type result = {
  fs_cases : int;  (** the paper's [N_fs_model] *)
  thread_steps : int;  (** lockstep steps evaluated (per-thread depth) *)
  iterations_evaluated : int;  (** innermost iterations across all threads *)
  chunk_runs : int;  (** complete chunk runs evaluated *)
  samples : run_sample list;
      (** cumulative FS after each chunk run (empty unless
          [record_samples]) *)
  truncated : bool;  (** stopped early by [max_chunk_runs] *)
  steals : int;
      (** steal events across all replayed work-stealing plans (0 for the
          static deal and for dynamic/guided dispatch) — the per-seed
          input to the Cole–Ramachandran steal-bound check *)
}

val run_count : unit -> int
(** Number of {!run} invocations so far in this process, from every
    domain (the counter is atomic, so concurrent {!Par_sweep} workers
    lose no increments).  The analytic cost path
    ([--cost-model analytic]) promises zero engine evaluations; tests
    snapshot this counter around it to enforce the promise. *)

val run :
  ?max_chunk_runs:int ->
  ?record_samples:bool ->
  ?engine:engine ->
  ?attrib:Attrib.t ->
  config ->
  nest:Loopir.Loop_nest.t ->
  checked:Minic.Typecheck.checked ->
  result
(** Evaluate the model.  [max_chunk_runs] bounds the evaluation (used by
    the linear-regression predictor, §III-E); [record_samples] keeps the
    per-chunk-run cumulative series (paper Fig. 6).

    [attrib], when given, receives per-event provenance for every FS
    case — (writer thread, writing reference) invalidating (victim
    thread, victim reference) on a cache line at a lockstep step — under
    either engine, with identical event streams ({!Attrib.total} equals
    the returned [fs_cases]).  The sink is an immutable option tested
    once per ownership-list entry; without it no recorder call is made
    and the fast path allocates nothing per access. *)
