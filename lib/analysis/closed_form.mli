(** Closed-form false-sharing estimator for constant-stride nests.

    For loop nests whose written references advance by a constant byte
    stride per parallel iteration, the number of FS cases {!Fsmodel.Model}
    would count can be computed analytically: every cache line of a written
    array is touched by a short, contiguous window of parallel iterations
    (the chunk-boundary-crossing window), the static schedule maps each of
    those iterations to a (thread, lockstep-step) pair in closed form, and
    the model's 1-to-All comparison reduces to prefix counting of distinct
    earlier writers per line — no cache state is simulated.

    The estimator is {e certifying}: it returns [Exact] only when it can
    prove its count equals [Model.run]'s, and otherwise reports why not so
    the caller can fall back to the engine.  The certificates are:

    - {e in-window residency}: between a holder's consecutive touches of a
      line, fewer distinct lines are inserted than the stack capacity, so
      no holder is evicted while a line's window is live;
    - {e cross-region eviction} (sequential outer loops): every thread
      touches at least [capacity + 1] distinct lines per region, so lines
      are always evicted between regions and regions contribute
      independently; or
    - {e cross-region residency}: every thread touches at most [capacity]
      distinct lines, so nothing is ever evicted and steady-state regions
      count full writer sets.

    Irregular nests — non-affine or inner-variable-dependent writes,
    non-constant strides, dynamic schedules — are [Inapplicable], and so
    is every configuration that replays a dispatch plan
    ([Fsmodel.Model.config.sched]), whatever its pragma says. *)

type info = {
  fs_cases : int;  (** provably equal to [Model.run]'s [fs_cases] *)
  lines_analyzed : int;  (** cache lines enumerated *)
  regions : int;  (** sequential outer-loop regions *)
  regime : string;
      (** which certificate applied: ["empty"], ["single"], ["reset"],
          ["hold"] or ["multi"] *)
}

type result = Exact of info | Inapplicable of string

val estimate :
  Fsmodel.Model.config ->
  nest:Loopir.Loop_nest.t ->
  checked:Minic.Typecheck.checked ->
  result
(** Cost: one pass over the cache lines of the written bases, linear in
    the events on those lines (a line's events are emitted in lockstep
    order directly, with no sort and no allocation per event), under a
    work budget that makes it [Inapplicable] ("analysis budget exceeded")
    rather than slow.  The in-window residency certificates are memoized
    exactly: the inserted-lines bound is monotone in the gap, so a gap no
    wider than one already certified passes without re-summing. *)

val estimate_count : unit -> int
(** Number of {!estimate} invocations so far in this process, from every
    domain (atomic, like {!Fsmodel.Model.run_count}).  Tests snapshot it
    to check that a request evaluates the closed form once per
    (configuration, nest). *)

(** {1 Parametric certificates}

    With all parameters but one fixed, the exact count is a
    {e quasi-polynomial} in the free parameter [p]: writing
    [p = base + r + M*q] with [0 <= r < M], the count is a polynomial in
    [q] for each residue [r].  [M] is the least common period of the
    static round-robin schedule ([chunk * threads] parallel iterations)
    and of each constant stride's cache-line phase
    ([line_bytes / gcd(line_bytes, stride)]); growing [p] by [M] extends
    every written array by a whole number of cache lines carrying the
    same thread-interleaving pattern.  The polynomial degree is bounded
    by the number of loops whose bounds mention [p].

    [estimate_sym] fits the per-residue polynomials from [degree + 1]
    oracle samples and cross-checks each residue at interior points; the
    far end of the domain is then scanned downward until a full period
    agrees with the fit, tabulating any boundary points that deviate
    (near [hi], written segments of adjacent outer iterations can come
    within a cache line of each other, adding cross-row sharing the bulk
    quasi-polynomial cannot see).  The oracle is the certifying concrete
    {!estimate} where it applies and {!Fsmodel.Model.run} itself where
    it does not ([sc_regime = "engine"]) — both are the exact count the
    certificate promises, the engine is just slower.  A certificate is
    returned only when every sample succeeds under one regime and every
    check matches. *)

type sym_cert = {
  sc_param : string;
  sc_base : int;  (** domain lower bound *)
  sc_hi : int;  (** domain upper bound, inclusive *)
  sc_modulus : int;  (** the period [M] *)
  sc_coeffs : int array array;
      (** [sc_coeffs.(r).(j)]: j-th Newton forward difference of the
          residue-[r] polynomial; the count at [base + r + M*q] is
          [sum_j sc_coeffs.(r).(j) * C(q, j)] *)
  sc_tail : (int * int) list;
      (** exact counts at the boundary points near [sc_hi] where the
          oracle deviates from the fitted quasi-polynomial; at most two
          periods' worth, and they override the polynomial in
          {!sym_eval} *)
  sc_regime : string;
}

type sym_result = Sym of sym_cert | Sym_inapplicable of string

val estimate_sym :
  Fsmodel.Model.config ->
  nest:Loopir.Loop_nest.t ->
  checked:Minic.Typecheck.checked ->
  param:string ->
  ?hi:int ->
  unit ->
  sym_result
(** [estimate_sym cfg ~nest ~checked ~param ?hi ()] fits a certificate
    for free parameter [param] over a domain ending at [hi] (default
    32768 — pass the in-bounds limit when one is known).  The domain's
    lower end is chosen automatically, climbing past cache-regime
    transitions until the count is uniform. *)

val sym_eval : sym_cert -> int -> int
(** Exact count at one parameter value.
    @raise Invalid_argument outside [[sc_base, sc_hi]]. *)

val sym_to_string : sym_cert -> string
(** Human form of the closed-form count, e.g.
    ["112*q + [0, 14, 28, ...][r]  where q = (n - 256) / 8, ..."]. *)
