(** Per-event provenance of false-sharing cases (the attribution layer
    behind [fsdetect explain]).

    {!Model.run} counts one FS case whenever a thread's access inserts a
    cache line that another thread holds in written state (the paper's
    1-to-All φ comparison).  An attribution recorder, when passed to the
    engine, captures {e who did what to whom} for every such case:

    - the {b victim} — the (thread, compiled reference) whose access
      suffers the case, and
    - the {b writer} — the (thread, compiled reference) whose earlier
      write put the line in written state in that thread's cache,

    together with the cache line and the lockstep parallel step the case
    occurred at.  Reference indices follow the compilation order of
    {!Ownership.compile}, i.e. the order of
    [Loop_nest.refs] (program order of the innermost body).

    The recorder is built for the allocation-free fast engine: aggregate
    histograms live in open-addressing {!Cachesim.Int_table}s keyed by
    packed integers, and the optional per-event trace is a bounded
    struct-of-arrays ring, so the hot path performs no boxing and no
    per-event allocation (amortized: tables and the ring grow by
    doubling up to their caps).

    {b Conservation invariant}: after a run, {!total} equals the
    engine's [fs_cases], and each aggregate view it keeps ({!fold_pairs},
    and {!fold_lines} and {!fold_cells} when created with
    [~line_views:true]) sums back to {!total}.  The test suite
    and the fuzzing oracle matrix enforce this on both engines. *)

type t

val create :
  ?trace_cap:int -> ?line_views:bool -> threads:int -> nrefs:int -> unit -> t
(** A fresh recorder for a team of [threads] over [nrefs] compiled
    references.  [trace_cap] bounds the per-event ring (default [65536];
    [0] keeps aggregates only).  The first [trace_cap] events are kept
    and later ones only aggregated — {!trace_dropped} reports how many.
    The (reference, thread) pair histogram and {!total} are always kept;
    the per-line and (line, thread) histograms only with
    [line_views] (default [false]), which [fsdetect explain] sets for
    its source annotation and heatmap.  A recorder that only ranks
    reference pairs (lint's attribution run, the fuzz oracle) skips two
    table updates per case.
    @raise Invalid_argument when [threads < 1] or [nrefs < 0]. *)

val record :
  t ->
  step:int ->
  line:int ->
  writer_tid:int ->
  writer_ref:int ->
  victim_tid:int ->
  victim_ref:int ->
  unit
(** Record one FS case.  [writer_ref] may be [-1] when the writing
    reference is unknown (never produced by {!Model.run}; tolerated so
    partial recorders stay usable). *)

val total : t -> int
(** Events recorded so far — the engine's [fs_cases] after a run. *)

val threads : t -> int
val nrefs : t -> int

(** {2 Aggregates} *)

val fold_pairs :
  t ->
  init:'a ->
  f:
    ('a ->
    writer_ref:int ->
    victim_ref:int ->
    writer_tid:int ->
    victim_tid:int ->
    count:int ->
    'a) ->
  'a
(** Fold over the (writer reference, victim reference, writer thread,
    victim thread) histogram, in unspecified order. *)

val fold_lines : t -> init:'a -> f:('a -> line:int -> count:int -> 'a) -> 'a
(** Fold over the per-cache-line histogram.
    @raise Invalid_argument unless created with [~line_views:true]. *)

val fold_cells :
  t -> init:'a -> f:('a -> line:int -> tid:int -> count:int -> 'a) -> 'a
(** Fold over the (cache line, victim thread) histogram — the heatmap's
    cells.  Lines may be negative (an address below the first global).
    @raise Invalid_argument unless created with [~line_views:true]. *)

type pair_stat = {
  writer_ref : int;
  victim_ref : int;
  writer_tid : int;
  victim_tid : int;
  count : int;
}

val top_pairs : ?n:int -> t -> pair_stat list
(** The [n] (default 3) heaviest histogram entries, by descending count;
    ties break deterministically (ascending packed key). *)

type ref_pair = {
  rp_writer : int;  (** writing reference, [-1] when unknown *)
  rp_victim : int;  (** victim reference *)
  rp_count : int;  (** cases over all thread pairs *)
  rp_threads : (int * int * int) list;
      (** (writer thread, victim thread, count), never empty *)
}
(** The histogram folded to one (writer reference, victim reference)
    pair. *)

val ref_pairs : t -> ref_pair list
(** Every reference pair, by descending count, ties broken by ascending
    (writer, victim) reference; each pair's [rp_threads] by descending
    count, ties broken by ascending (writer, victim) thread.  The first
    thread pair is the pair's representative. *)

val sentence : refs:Loopir.Array_ref.t array -> total:int -> ref_pair -> string
(** ["X% of FS cases: W written by Ta invalidates V read by Tb (n
    case(s) and k more thread pair(s))"] — the pair's share of [total]
    cases, named through [refs] (indexed as {!create}'s [nrefs]) at its
    representative thread pair: the line of [fsdetect explain]'s
    reference-pair table and of a lint finding's [top:] list. *)

(** {2 Trace ring} *)

val trace_len : t -> int
(** Events retained in the ring ([min total trace_cap]). *)

val trace_dropped : t -> int
(** Events aggregated but not retained ([total - trace_len]). *)

val trace_step : t -> int -> int
val trace_line : t -> int -> int
val trace_writer_tid : t -> int -> int
val trace_writer_ref : t -> int -> int
val trace_victim_tid : t -> int -> int
val trace_victim_ref : t -> int -> int
(** Field accessors for ring entry [i], [0 <= i < trace_len], in
    recording order. *)
