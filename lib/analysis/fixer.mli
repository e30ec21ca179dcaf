(** Fix verification: the closed loop from advice to a proven transformed
    program.

    [Fsmodel.Transform] materializes the fix; this module re-runs the
    whole analysis stack on the result — two FS counts, the dependence
    analysis, and the analytic reuse-distance cost model — and compares
    against the original.  The two counts are the [`Fast] engine and an
    independent exact count: the {!Closed_form} estimate where it
    certifies the nest (the same estimate the cost model uses, so it is
    made once), else the [`Reference] engine.  A fix is {e verified} when

    - the transformed source round-trips (re-parses and re-typechecks to
      the same span-erased AST),
    - the [`Fast] engine agrees with the independent count on every nest,
      before and after,
    - the attributed FS removal reaches [min_removal] (90%),
    - no new race appears, and
    - the analytic [Total_c] does not regress beyond [cost_slack]
      (5%).

    The execution-simulator leg of the gate lives with the tests and the
    bench driver ([test/fix_verify.ml]), which link the simulator; this
    library stays simulator-free. *)

type metrics = {
  fs_fast : int;  (** FS cases, [`Fast] engine, summed over all nests *)
  fs_ref : int;
      (** FS cases, the independent count: certified closed form, else the
          [`Reference] engine *)
  races : int;  (** loop-carried dependence pairs *)
  cost : float option;
      (** analytic [Total_c] summed over nests; [None] when some nest has
          no analytic certificate *)
}

type verdict = {
  func : string;
  plan : Fsmodel.Transform.plan;
  before : metrics;
  after : metrics;
  removal : float;  (** fraction of the attributed FS removed *)
  cost_ratio : float option;  (** after/before analytic cost *)
  min_removal : float;
  cost_slack : float;
  roundtrip_ok : bool;
  engines_agree : bool;
      (** the [`Fast] engine equals the independent count on every nest,
          before and after *)
  verified : bool;
  transformed : Minic.Typecheck.checked;
  source : string;  (** pretty-printed transformed program *)
}

type outcome =
  | Nothing_to_fix of string
      (** empty plan, no false sharing counted before the fix (the
          after-measurement is then skipped), parametric nest, or
          non-lowerable function — the string says which *)
  | Fix of verdict

val verify :
  ?arch:Archspec.Arch.t ->
  ?advice:Fsmodel.Advisor.advice ->
  ?chunk:int ->
  threads:int ->
  func:string ->
  Minic.Typecheck.checked ->
  outcome
(** Plan (via [Fsmodel.Transform.plan], reusing [advice] when the caller
    already ran the chunk sweep), materialize, and measure before/after.
    [chunk] overrides the schedule chunk in both measurements; leave it
    unset so a retuned schedule takes effect in the after-measurement. *)

val to_text : verdict -> string
(** Deterministic multi-line report (plan, before/after metrics, removal,
    cost ratio, verdict) — the text half of [fsdetect fix]. *)

val to_json : verdict -> Json.t
(** The same report as a JSON object, including the transformed source
    under ["transformedSource"]. *)
