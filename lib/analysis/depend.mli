(** Affine dependence analysis over the reference pairs of one loop nest.

    For every pair of references to the same base with at least one write,
    the analyzer decides whether two {e distinct iterations of the parallel
    loop} can touch overlapping bytes (a loop-carried dependence — a data
    race under [omp parallel for]), can touch the same cache line without
    overlapping bytes (a false-sharing candidate), or can do neither
    (independent).

    Two decision tiers run in sequence:

    - {b Banerjee + GCD} (always): the difference of the two byte offsets
      is formed as an affine expression over the loop variables of both
      iterations (the second iteration's variables renamed), the parallel
      distance is introduced as an explicit variable constrained away from
      zero, and a conflict is declared {e impossible} when either the
      Banerjee interval of the difference misses the overlap window or the
      coefficient GCD admits no solution inside it.  Both tests are
      sufficient conditions for independence, so conflict verdicts are
      {e may} results and [Independent] is a {e must} result.
    - {b Exact (Omega test)} (unless [~exact:`Off]): every pair the first
      tier could not prove independent is re-decided by {!Exact}, an exact
      integer-feasibility procedure over the full iteration polyhedron
      (strides, coupled subscripts, shared outer loops, divisions by
      constants in bounds, and precise line-index arithmetic are all
      encoded as rows).  Surviving conflicts become {e must} results
      carrying a validated witness iteration pair; refuted ones upgrade to
      [Independent]; budget exhaustion falls back to the first tier's
      verdict, recorded in the evidence. *)

type verdict =
  | Independent
      (** no two distinct parallel iterations can touch the same cache
          line through this pair *)
  | Loop_carried
      (** distinct parallel iterations touch (may touch, if the evidence
          is not a must) overlapping bytes: a loop-carried dependence,
          i.e. a data race *)
  | Line_conflict
      (** bytes never overlap across parallel iterations, but the same
          cache line is (or may be) touched: a false-sharing candidate *)
  | Unknown of string
      (** the pair could not be analyzed by either tier (non-affine
          subscripts or bounds); no verdict is implied *)

type backend =
  | Banerjee  (** first tier only: conflicts are may-results *)
  | Exact  (** the Omega-test tier decided the pair exactly *)
  | Fallback of string
      (** the exact tier was attempted but gave up (budget exhaustion or
          an unsupported construct, named by the string); the verdict is
          the Banerjee one *)

type witness = {
  w_params : (string * int) list;
      (** free-parameter values the witness instantiates (empty for
          concrete nests) *)
  w_a : (string * int) list;
      (** loop-variable values of the first iteration, outermost first *)
  w_b : (string * int) list;
      (** loop-variable values of the second iteration; shared outer
          sequential loops repeat the same values *)
}

type evidence = {
  ev_backend : backend;
  ev_must : bool;
      (** the verdict is certain for this configuration: always true for
          [Independent], true for conflicts exactly when the exact tier
          found a witness with no free parameters *)
  ev_witness : witness option;
      (** a concrete conflicting iteration pair, validated against the
          byte/line arithmetic before being emitted *)
}

type exact_mode = [ `Auto | `On | `Off ]
(** [`Off] disables the exact tier ([Banerjee] evidence everywhere);
    [`Auto] and [`On] run it identically — the distinction only drives
    how callers report budget fallbacks ([`On] loudly). *)

val default_exact_budget : int

type pair = {
  a : Loopir.Array_ref.t;
  b : Loopir.Array_ref.t;
  verdict : verdict;
  ev : evidence;
}

val pairs :
  line_bytes:int ->
  params:(string * int) list ->
  ?exact:exact_mode ->
  ?exact_budget:int ->
  Loopir.Loop_nest.t ->
  pair list
(** All unordered same-base pairs with at least one write (a reference is
    also paired with itself: a write that different parallel iterations
    aim at the same address is a write-write race).  Loop bounds are
    interval-evaluated outermost-in; bounds the interval box rejects
    (non-affine, unbound identifiers) yield [Unknown] from the first
    tier, but the exact tier can still decide them — treating unbound
    identifiers as free non-negative parameters, in which case conflict
    witnesses name the parameter values they instantiate and [ev_must]
    stays false.  [exact_budget] caps the solver steps spent per pair. *)

val verdict_name : verdict -> string
val backend_name : backend -> string

val banerjee_ev : must:bool -> evidence
(** First-tier evidence with no witness — the default for callers that
    synthesize findings outside the dependence analysis. *)

val witness_to_string : witness -> string
(** ["i=0, j=477 vs i'=1, j'=0"], prefixed with ["n=66: "] when the
    witness instantiates free parameters. *)

val free_params :
  params:(string * int) list -> Loopir.Loop_nest.t -> string list
(** Identifiers appearing in loop bounds that are bound neither by
    [params] nor by an enclosing loop variable, in order of first
    appearance — the nest is parametric exactly when this is non-empty.
    Bounds the symbolic box cannot express (e.g. division by a
    constant) still report their unbound identifiers, so such nests
    route to the parametric path where the exact tier can decide
    them. *)

type spair = {
  sa : Loopir.Array_ref.t;
  sb : Loopir.Array_ref.t;
  scases : (verdict * evidence) Symbolic.cases;
      (** region-qualified verdict with its evidence: a case-split tree
          over the free parameters *)
}

val pairs_sym :
  line_bytes:int ->
  params:(string * int) list ->
  ?exact:exact_mode ->
  ?exact_budget:int ->
  ?extent_of:(string -> int option) ->
  Loopir.Loop_nest.t ->
  spair list * Symbolic.ctx * string list
(** Parametric variant of {!pairs}: identifiers in loop bounds that are
    bound neither by [params] nor by an enclosing loop become {e free
    symbolic parameters}, and each pair's verdict is a case-split tree
    over them, valid for {e every} non-negative value of the free
    parameters.  Also returns the parameter constraint context (free
    parameters assumed [>= 0], tightened by in-bounds reasoning when
    [extent_of] reports an array's extent in bytes: iterations that index
    outside a declared array are undefined behaviour, so bounds keeping
    every subscript in bounds may be assumed) and the free parameters in
    order of first appearance.

    Soundness mirrors {!pairs} regionwise: in any region, [Independent]
    is a must-result, conflict verdicts are may-results.  When every
    range is concrete the tree is a single leaf equal to the {!pairs}
    verdict.  With free parameters the tree {e refines} the concrete
    analysis: instantiating it at any parameter value yields a verdict
    at least as severe as {!pairs} at that value — never [Independent]
    where the concrete analysis reports a conflict, never
    [Line_conflict] where it reports [Loop_carried].  (Feasibility is
    monotone in the variable ranges on every test path, and the
    symbolic analysis only ever widens ranges: companion variables are
    over-approximated by their parameter-context hulls during
    feasibility probing, and with a non-unit parallel step the distance
    range over-approximates the trip count, which is not affine in the
    parameter.)  The symbolic analysis can therefore be conservative
    where the concrete analysis proves independence, but the empty- and
    single-iteration regions are always recognized exactly.

    The exact tier preserves the contract region-wise: under every
    satisfiable path the leaf is re-decided with the path atoms and the
    context bounds as additional parameter constraints, so an upgrade to
    [Independent] asserts infeasibility for {e every} parameter value in
    the region, while a surviving conflict carries a witness naming one
    realizable parameter valuation ([ev_must] stays false — other values
    in the region may differ).  Because the exact tier only tightens
    ({e within} the region) and never loosens, instantiating the refined
    tree still refines the concrete analysis run with the same
    [exact] configuration. *)
