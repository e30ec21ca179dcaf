(** A mini-C interpreter with OpenMP semantics, instrumented for the cache
    simulator.

    Sequential code runs on thread 0.  A [#pragma omp parallel for] loop
    spawns the configured team: iterations are dealt according to the
    schedule clause — [static] round-robin chunks (contiguous blocks when
    no chunk is given, per the OpenMP default), [dynamic] from a shared
    chunk counter, or [guided] with decaying chunk sizes — and the threads
    are interleaved in windows of [interleave_window] parallel iterations,
    modeling that real threads execute several of their own iterations
    between coherence interactions (window 1 = adversarial lockstep,
    larger = more slack).  The kernels are race-free, so the interleaving
    does not affect computed values, only the simulated cache behaviour.

    Every access to a memory-resident global is reported through the
    {!sink}, along with estimated CPU cycles per executed statement
    (processor model) and region boundaries for overhead accounting.

    {2 Compilation}

    [exec] compiles a function once, on its first call, into closures over
    a frame; [create] compiles nothing.  The simulated-access path
    allocates nothing:
    - {b Typed frames.}  Int locals (loop indices included) live in an
      [int array], float locals in a [floatarray]; the types come from
      {!Minic.Typecheck.locals_of_func}.  A store into a local converts to
      the local's declared type, and a reduction's private copies start
      from the identity of that type, as in C.
    - {b Float registers.}  Each float expression node writes its result
      into a register of the frame's [floatarray] (constants have
      registers too) instead of returning a boxed float; builtins are
      called directly.
    - {b Affine addresses.}  A reference with one or two subscripts,
      each a constant multiple of one int local plus a constant
      ([num_threads] folds in as a constant), computes
      [base + Σ idx_k × stride_k] inside the access itself; each [idx_k]
      is still bounds-checked.  Any other reference (a subscript that
      reads memory, like a histogram's [h\[a\[i\]\]], or one that spans
      several locals) keeps one closure per subscript.

    {2 Sink order}

    The sink sees one event per access, in a fixed order: operands right
    to left; the right-hand side of an assignment before the read of a
    compound target, and that read before the write; the last subscript
    of a reference checked first, with the [Runtime_error] naming the
    subscripted reference.  A compound assignment through the
    per-subscript closures computes its address twice, once per access,
    so a subscript that reads memory is read twice.  A statement
    expression, a float value stored into an int location or compounded
    into an int local, an int value assigned to a float local, and a
    float expression where an int is expected (an int declaration's
    initializer, a loop's start, step or bound) are evaluated in the
    generic order: a two-argument builtin evaluates its arguments left
    to right, an int division evaluates both operands before it tests
    the divisor, and float comparisons follow [compare].  Each [cpu]
    charge is computed once per statement at compile time.
    [test/interp_ref.ml] is the reference these rules are checked
    against, event by event. *)

type sink = {
  mem_access : tid:int -> addr:int -> size:int -> write:bool -> unit;
  cpu : tid:int -> float -> unit;
  region_begin : threads:int -> unit;
  region_end : chunks_per_thread:int -> unit;
}

val null_sink : sink

type t

val create :
  ?threads:int ->
  ?chunk_override:int ->
  ?sched_override:Ompsched.Dispatch.kind * int ->
  ?interleave_window:int ->
  ?sink:sink ->
  Minic.Typecheck.checked ->
  t
(** Defaults: 1 thread, pragma chunk, window 4, no instrumentation.
    [sched_override] replays a seeded {!Ompsched.Dispatch} plan
    ((kind, seed)) instead of the pragma's schedule: every parallel loop
    executes the exact per-thread iteration sequences of the plan, so a
    simulated run is comparable to an {!Fsmodel.Model} run seed for
    seed. *)

val steals : t -> int
(** Steal events accumulated across executed parallel regions (0 unless
    a work-stealing [sched_override] ran). *)

val layout : t -> Loopir.Layout.t
val memory : t -> Mem.t

exception Runtime_error of string

val exec : t -> func:string -> unit
(** Execute a function body (arguments are not supported — kernels take
    none).  @raise Runtime_error on unsupported constructs. *)

type sel = Idx of int | Fld of string

val read_global : t -> string -> sel list -> Value.t
(** [read_global t "a" [Idx 3; Fld "x"]] reads [a\[3\].x] — for checking
    results in tests and examples. *)
