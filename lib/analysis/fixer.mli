(** Fix verification: the closed loop from advice to a proven transformed
    program.

    [Fsmodel.Transform] materializes the fix; this module re-runs the
    whole analysis stack on the result — both model engines, the
    dependence analysis, and the analytic reuse-distance cost model —
    and compares against the original.  A fix is {e verified} when

    - the transformed source round-trips (re-parses and re-typechecks to
      the same span-erased AST),
    - both engines agree on the FS count before and after,
    - the attributed FS removal reaches [min_removal] (90%),
    - no new race appears, and
    - the analytic [Total_c] does not regress beyond [cost_slack]
      (5%).

    The execution-simulator leg of the gate lives with the tests and the
    bench driver ([test/fix_verify.ml]), which link the simulator; this
    library stays simulator-free. *)

type metrics = {
  fs_fast : int;  (** FS cases, [`Fast] engine, summed over all nests *)
  fs_ref : int;  (** FS cases, [`Reference] engine *)
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
  removal : float;  (** fraction of attributed FS removed, 1.0 when none *)
  cost_ratio : float option;  (** after/before analytic cost *)
  min_removal : float;
  cost_slack : float;
  roundtrip_ok : bool;
  engines_agree : bool;
  verified : bool;
  transformed : Minic.Typecheck.checked;
  source : string;  (** pretty-printed transformed program *)
}

type outcome =
  | Nothing_to_fix of string
      (** empty plan, parametric nest, or non-lowerable function — the
          string says which *)
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
