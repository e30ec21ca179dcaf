(** Diagnostics: severity-ranked findings with source spans, fix-it
    suggestions, and deterministic text / SARIF-shaped JSON renderers. *)

type severity = Error | Warning | Info

type fixit = { title : string; detail : string }
(** A suggested remediation, e.g. a schedule chunk or struct padding. *)

type finding = {
  rule : string;  (** e.g. ["race/loop-carried"], ["fs/line-conflict"] *)
  severity : severity;
  span : Minic.Span.t;
  func : string;  (** enclosing function, [""] if program-level *)
  message : string;
  fixits : fixit list;
  region : string option;
      (** parametric lint: the parameter region the finding holds in,
          e.g. ["n >= 2"]; [None] for concrete findings *)
  symbolic : string option;
      (** parametric lint: the closed-form count over the free
          parameter, when one was certified *)
  attribution : string list;
      (** concrete FS findings: the top reference-pair attribution
          sentences ("X% of FS cases: ..."), heaviest first; empty when
          the nest was not attributed (races, parametric mode) *)
  backend : string option;
      (** dependence backend that decided the finding
          ("exact", "banerjee", "banerjee (fallback: ...)"); rendered
          as a SARIF [dependenceBackend] property, and as a text
          [backend:] line only for fallbacks *)
  witness : string option;
      (** conflicting iteration pair certified by the exact backend,
          e.g. ["i=0, j=477 vs i'=1, j'=0"]; SARIF [witness] property
          and a text [witness:] line *)
  reason : string option;
      (** for [analysis/unknown] findings: the raw reason string,
          surfaced as a SARIF [unknownReason] property *)
  cost : cost option;
      (** analytic cost context attached when the lint ran with
          [--cost-model analytic|both]: rendered as text [cost:]/[miss:]
          lines and SARIF [predictedMissRate]/[costBreakdown] properties *)
  sched : string option;
      (** the replayed schedule kind (e.g. ["dynamic,1"], ["ws,2"]) when
          the lint drove a nondeterministic schedule: a text [schedule:]
          line and the SARIF [scheduleKind] property *)
  dist : Dist.t option;
      (** the FS distribution over the replayed seed set: a text
          [fs-dist:] line and the SARIF [fsDistribution] property *)
  fix_verified : fix_verified option;
      (** evidence from re-analyzing the materialized fix (see
          {!Fixer}), attached when the lint ran with fixits on a
          concrete static schedule: a text [fix-verified:] line and the
          SARIF [fixVerified] property *)
}

and fix_verified = {
  fv_rewrites : string list;
      (** one [Transform.describe] line per planned rewrite *)
  fv_fs_before : int;  (** attributed FS cases before the fix *)
  fv_fs_after : int;  (** after re-analyzing the transformed program *)
  fv_removal : float;  (** percent of attributed FS removed *)
  fv_cost_ratio : float option;
      (** after/before analytic [Total_c]; [None] without certificates *)
  fv_ok : bool;  (** the full {!Fixer} verification verdict *)
}

and cost = {
  cost_model : string;  (** ["analytic"] (or ["sim"] for engine-backed) *)
  eq1 : Costmodel.Total_cost.eq1;  (** the four reported Eq. 1 terms *)
  fs_percent : float;  (** FS share of the predicted total, in percent *)
  miss_rate : float;  (** predicted beyond-L1 miss share, in [0,1] *)
  mem_fetches : float;  (** predicted DRAM line fetches, machine-wide *)
}

val finding :
  ?fixits:fixit list ->
  ?region:string ->
  ?symbolic:string ->
  ?attribution:string list ->
  ?backend:string ->
  ?witness:string ->
  ?reason:string ->
  ?cost:cost ->
  ?sched:string ->
  ?dist:Dist.t ->
  ?fix_verified:fix_verified ->
  rule:string ->
  severity:severity ->
  span:Minic.Span.t ->
  func:string ->
  string ->
  finding
(** [finding ~rule ~severity ~span ~func message]: the record with every
    field not given empty ([[]] or [None]). *)

type report = { uri : string; findings : finding list }

val severity_name : severity -> string
(** ["error"], ["warning"], ["note"] — SARIF level names. *)

val sort : finding list -> finding list
(** Stable order: severity (errors first), then span, then rule. *)

val error_count : report -> int
(** Findings at [Error] severity (the [--fail-on] gate counts these). *)

val to_text : report -> string
(** One ["uri:line:col: severity[rule]: message"] line per finding,
    fix-its indented beneath, and a trailing summary line. *)

val to_json : report -> Json.t
(** SARIF 2.1.0-shaped document: one run, one result per finding. *)
