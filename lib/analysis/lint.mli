(** The whole-program lint pass: discover every [omp parallel for] nest,
    classify reference pairs with {!Depend}, quantify false sharing with
    {!Closed_form} (falling back to the {!Fsmodel.Model} engine), and
    emit severity-ranked {!Diag} findings with fix-its from the advisor
    and the elimination planner.

    Rules:
    - ["race/loop-carried"] (error): a write and another access to the
      same base may touch the same bytes in different parallel
      iterations — the loop is not safely parallel.
    - ["fs/line-conflict"] (warning; note when the model counts zero
      cases): accesses proven byte-disjoint across parallel iterations
      may still share a cache line.
    - ["analysis/unknown"] (warning): the nest or a dependence could not
      be analyzed (non-affine bounds or subscripts).
    - ["analysis/exact-budget"] (warning, [`On] mode only): the exact
      dependence tier gave up on a pair (budget exhaustion or an
      unsupported construct) and the Banerjee verdict was kept.

    Fix-its (a [schedule(static, c)] chunk from {!Fsmodel.Advisor} and
    padding/spreading from {!Fsmodel.Eliminate}) are attached to
    ["fs/line-conflict"] findings only when the nest has no race
    findings: tuning the schedule of a racy loop would legitimize a
    transformation that is unsound to begin with.

    {b Parametric nests.}  A nest whose loop bounds mention identifiers
    bound neither by [params] nor by a [#define] is analyzed
    symbolically instead of rejected: verdicts come from
    {!Depend.pairs_sym} and hold for {e every} admissible value of the
    free parameters, findings carry the parameter region they hold in
    ({!Diag.finding.region}), and when a single free parameter remains
    the count is the certified quasi-polynomial of
    {!Closed_form.estimate_sym} ({!Diag.finding.symbolic}).  Fix-its are
    concrete-only. *)

type cost_model = [ `Sim | `Analytic | `Both ]
(** How findings are quantified and costed:
    - [`Sim] (default): closed form when certified, the
      {!Fsmodel.Model} engine otherwise; no Eq. 1 context attached.
    - [`Analytic]: zero engine evaluations — FS counts come only from
      {!Closed_form} certificates, the Eq. 1 breakdown from
      {!Reuse.analyze}, and findings report why when no certificate
      applies.  Fix-its lose the advisor's chunk sweep (engine-backed).
    - [`Both]: engine-backed counts {e and} the analytic Eq. 1 context.
*)

val cost_model_name : cost_model -> string

type options = {
  arch : Archspec.Arch.t;
  threads : int;
  chunk : int option;  (** overrides the pragma's [schedule] chunk *)
  fixits : bool;  (** run the advisor / planner for remediations *)
  params : (string * int) list;
      (** extra [-p NAME=VAL] bindings for identifiers in loop bounds;
          ["num_threads"] is always bound to [threads] *)
  exact : Depend.exact_mode;
      (** exact dependence tier: [`Auto] (default) runs it and reports
          fallbacks silently, [`On] additionally emits
          ["analysis/exact-budget"] warnings, [`Off] disables it *)
  exact_budget : int;  (** solver step allowance per reference pair *)
  cost_model : cost_model;
  sched : Ompsched.Dispatch.kind option;
      (** replay a nondeterministic schedule instead of the static
          round-robin deal: FS counts become a {!Dist} distribution over
          the seed set.  [None] follows the pragma — a
          [schedule(dynamic)]/[(guided)] pragma is replayed too; only
          [schedule(static)] stays on the closed-form path *)
  seeds : int;  (** seed-set size for distribution-valued verdicts *)
}

val default_options : options
(** Paper machine, 8 threads, pragma chunk, fix-its on, no extra
    parameters, [`Sim] cost model, pragma schedule, 8 seeds. *)

val run :
  ?opts:options -> uri:string -> Minic.Typecheck.checked -> Diag.report
(** Lint every parallel function of the program.  Findings are sorted
    with {!Diag.sort}; [uri] is only used for rendering. *)
