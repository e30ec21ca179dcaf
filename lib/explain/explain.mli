(** Attribution and explanation of false-sharing counts (the layer
    behind [fsdetect explain]).

    {!Fsmodel.Model.run} reduces a loop nest to one scalar [fs_cases];
    this module runs the engine with an {!Fsmodel.Attrib} recorder
    attached and aggregates the per-event provenance into the views a
    developer fixing false sharing actually needs:

    - {b reference pairs} — which written reference invalidates which
      other reference, with the thread pairs involved;
    - {b arrays} — the same, folded to base arrays;
    - {b cache lines} — which lines the cases concentrate on.

    Three renderers turn a summary into output: {!to_text} (annotated
    source: each hot reference's span is underlined with its share of
    all cases), {!heatmap} (an ASCII cache-line × victim-thread density
    map), and {!trace_json} (a Chrome [trace_event] document loadable in
    Perfetto / [chrome://tracing] for step-by-step inspection).

    The conservation invariant — per-pair counts sum exactly to the
    engine's [fs_cases] — holds by construction and is re-checked by
    {!analyze} (which raises on a mismatch) as well as by the test suite
    and the fuzzing oracle matrix. *)

type t = {
  uri : string;  (** what was analyzed, for rendering *)
  func : string;
  threads : int;
  chunk : int option;
  engine : Fsmodel.Model.engine;
  sched : (string * int) option;
      (** (replayed schedule kind, seed count) when the analysis drove a
          nondeterministic schedule; aggregates then cover the whole
          seed set *)
  engine_fs : int;  (** the engine's [fs_cases] (summed over seeds) *)
  total : int;  (** recorded events; equals [engine_fs] *)
  refs : Loopir.Array_ref.t array;
      (** the nest's references, by compiled index ({!Fsmodel.Ownership}) *)
  pairs : Fsmodel.Attrib.ref_pair list;
      (** {!Fsmodel.Attrib.ref_pairs}: descending count *)
  arrays : (string * string * int) list;
      (** (writer base, victim base, count), descending *)
  lines : (int * int) list;  (** (cache line, count), descending *)
  line_bytes : int;
  layout : Loopir.Layout.t;
  recorder : Fsmodel.Attrib.t;  (** the raw recorder, for the trace *)
  verdicts : string list;
      (** one rendered {!Analysis.Depend} line per reference pair —
          verdict, deciding backend, must-ness, witness iteration pair —
          shown as the [dependence verdicts] section of {!to_text};
          empty when the nest's pairs cannot be formed *)
  cost : string list;
      (** the analytic Eq. 1 view from {!Analysis.Reuse.analyze} — the
          one-line breakdown plus the FS share / predicted miss-rate
          sentence — shown as the [analytic cost] section of {!to_text};
          empty when the reuse model cannot evaluate the nest *)
}

val analyze :
  ?engine:Fsmodel.Model.engine ->
  ?trace_cap:int ->
  ?sched:Ompsched.Dispatch.kind * int array ->
  uri:string ->
  func:string ->
  Fsmodel.Model.config ->
  nest:Loopir.Loop_nest.t ->
  checked:Minic.Typecheck.checked ->
  t
(** Run the model with a recorder attached and aggregate.  [trace_cap]
    bounds the per-event ring kept for {!trace_json} (default [65536]).
    [sched] replays a nondeterministic schedule once per seed into the
    same recorder, so pair/array/line aggregates cover the whole seed
    set and [engine_fs] is the summed count (per-seed attribution
    aggregation); runs are sequential — the recorder is not thread-safe.
    @raise Failure if the recorded total disagrees with the engine's
    count (a broken conservation invariant is a bug, not a result). *)

val to_text : ?source:string -> ?top:int -> t -> string
(** The annotated-source report: a header with the totals, the [top]
    (default 3) reference pairs with their share of all cases and
    hottest thread pairs, the per-array and per-line concentration
    tables — and, when [source] is given, the program listing with each
    hot span underlined by its attribution line. *)

val heatmap : ?rows:int -> ?cols:int -> t -> string
(** ASCII cache-line × victim-thread heatmap: touched lines are bucketed
    into at most [rows] (default 24) contiguous row ranges labelled with
    the arrays they fall in, one column per victim thread (capped at
    [cols], default 16), cells scaled [.:-=+*#%@] by event density. *)

val trace_json : t -> Analysis.Json.t
(** Chrome [trace_event] export: one instant event per recorded FS case
    ([ph = "i"], [ts] = lockstep step, [tid] = victim thread), thread
    name metadata, and an [otherData] block with the totals.  Events
    past the recorder's ring capacity are dropped (the header says how
    many); aggregates in {!t} always cover every case. *)

val conservation_ok : t -> bool
(** Re-check the invariant: {!total} = [engine_fs] and all three
    aggregate views sum back to it.  Exposed for tests and the fuzzing
    oracle. *)
