(** A normalized loop nest with one OpenMP-parallel level.

    Bounds are kept as AST expressions because they may involve parameters
    (e.g. [M / num_threads] in the Phoenix linear-regression kernel) and
    outer induction variables (triangular nests); they are evaluated on
    demand against an environment. *)

type loop = {
  var : string;
  lower : Minic.Ast.expr;  (** first value of [var] *)
  upper_excl : Minic.Ast.expr;  (** iteration continues while [var < upper] *)
  step : int;  (** positive constant *)
  span : Minic.Span.t;  (** the source [for] header; may be [none] *)
}

type t = {
  func : string;
  loops : loop list;  (** outermost first; never empty *)
  parallel_depth : int;  (** index into [loops] of the pragma'd loop *)
  pragma : Minic.Ast.pragma;
  refs : Array_ref.t list;  (** innermost-body references, program order *)
  body : Minic.Ast.stmt list;  (** innermost-body statements *)
}

val depth : t -> int
val parallel_loop : t -> loop
val trip_count : loop -> env:(string -> int option) -> int
(** Number of iterations of one loop under [env] (which must bind parameters
    and any outer induction variables appearing in the bounds); 0 when the
    bounds are empty.  @raise Expr_eval.Unbound when the environment is
    incomplete. *)

val total_iterations : t -> env:(string -> int option) -> int
(** Total innermost iterations of the whole nest (the paper's
    [All_num_of_iters]); handles triangular bounds by recursive expansion. *)

val schedule_kind : t -> [ `Static | `Dynamic | `Guided ]
(** The worksharing kind; no schedule clause means [`Static] (the OpenMP
    default for this construct on most runtimes, and the paper's setting). *)

val chunk_spec : t -> int option
(** The [schedule(static,c)] chunk size; [None] for [schedule(static)]
    without a chunk (or no schedule clause), which OpenMP distributes in
    contiguous per-thread blocks — resolve with
    {!Ompsched.Schedule.block_chunk} once the trip count is known. *)

val with_static_chunk : t -> int -> t
(** The nest with its pragma's schedule rewritten to
    [schedule(static, c)] — the chunking a cost is asked for. *)

val chunk_size : t -> int
(** [chunk_spec] with the block case collapsed to 1 — only meaningful for
    nests known to carry an explicit chunk (kept for reporting). *)

val pp : Format.formatter -> t -> unit
