(** Step 2 of the paper's method (§III-B): the cache-line ownership list —
    for given values of the loop indices, the set of cache lines a thread
    reads/writes in that iteration.

    References are compiled once (base addresses resolved through
    {!Loopir.Layout}, parameters folded) so that per-iteration evaluation is
    a handful of integer multiply-adds.  Byte [addr] lies on line
    [addr asr line_shift line_bytes] ({!Archspec.Cache_geom.line_shift}:
    floor division, so an address below the first global is on a negative
    line).
    Lines touched more than once in an iteration are merged, a write
    dominating reads. *)

type entry = { line : int; written : bool }

type attr_entry = { a_line : int; a_written : bool; a_ref : int }
(** An ownership-list entry with provenance: [a_ref] is the index (in
    compilation order, i.e. the order of the nest's [Loop_nest.refs]) of
    the reference the line is attributed to — the first write touching
    it in the iteration, else the first touch. *)

type t

val compile :
  layout:Loopir.Layout.t ->
  line_bytes:int ->
  params:(string * int) list ->
  var_slots:string list ->
  Loopir.Loop_nest.t ->
  t
(** [var_slots] fixes the order in which {!lines} expects index values
    (normally the nest's loop variables, outermost first).
    @raise Invalid_argument if a reference uses a variable outside
    [var_slots] and [params], or if [line_bytes] is not a power of two. *)

val lines : t -> int array -> entry list
(** Ownership list for the iteration whose index values are given in
    [var_slots] order.  The result is freshly allocated, deduplicated,
    in first-touch order.  This list-building evaluation is the reference
    implementation the incremental {!cursor}/{!fill} engine is checked
    against. *)

val lines_with_refs : t -> int array -> attr_entry list
(** {!lines} with per-entry provenance; same entries, same order,
    same write domination.  Used by the reference engine's attribution
    path. *)

val ref_count : t -> int
(** Number of compiled references (the length of the nest's
    [Loop_nest.refs]). *)

(** {2 Incremental evaluation}

    The allocation-free engine behind {!Model}'s fast path: a {!cursor}
    keeps one running address per compiled reference and folds index
    changes in as deltas ([coefficient * (new - old)] per affected
    reference — the strength-reduced form of re-evaluating every affine
    term), and a {!buffer} is refilled in place with the deduplicated
    ownership list.  {!fill} produces exactly the entries {!lines} would,
    in the same first-touch order with the same write domination. *)

type cursor

val cursor : t -> cursor
(** A cursor positioned at index value 0 in every slot. *)

val cursor_set : cursor -> int -> int -> unit
(** [cursor_set c slot v] moves one index to [v]; O(refs using slot),
    free when the value is unchanged. *)

type buffer

val buffer : unit -> buffer
(** A reusable ownership-list buffer; it grows to the largest list ever
    filled into it and is reset by each {!fill}. *)

val buf_len : buffer -> int
val buf_line : buffer -> int -> int
val buf_written : buffer -> int -> bool

val buf_ref : buffer -> int -> int
(** Reference index entry [i] is attributed to (see {!attr_entry});
    {!fill} computes the same attribution {!lines_with_refs} would. *)

val fill : cursor -> buffer -> unit
(** Replace [buffer]'s contents with the ownership list at the cursor's
    current index values. *)
