(** The model's FS-counting engine: per-thread stack-distance cache states
    plus an O(1) bitmask index of which threads hold each line in written
    state.  Semantically identical to folding {!Detect.fs_cases_for_insert}
    over the states (tests cross-check the two); this version makes the
    1-to-All comparison a constant-time SWAR popcount.

    Up to 62 threads the per-line mask is a single word; wider thread
    counts transparently switch to a {!Cachesim.Bitset} per line. *)

type t

val create : threads:int -> capacity:int -> t
(** @raise Invalid_argument when [threads < 1]. *)

val process : t -> me:int -> line:int -> written:bool -> int
(** Count the FS cases triggered by thread [me] inserting [line] (the φ
    comparison against all other states), then insert it.  One probe of
    [me]'s stack yields the evicted line, and one probe of the mask table
    reads the writers (with [me]'s prior written state) and marks [me].
    Allocation-free once the tables have grown to the working set (up to
    62 threads; wider counts allocate one bitset per distinct line). *)

val process_attr :
  t ->
  me:int ->
  line:int ->
  written:bool ->
  ref_id:int ->
  step:int ->
  Attrib.t ->
  int
(** {!process} with provenance: each counted FS case is also recorded
    into the {!Attrib} sink as (writer thread, its last writing
    reference) invalidating (thread [me], reference [ref_id]) at
    lockstep [step].  The returned count is bit-identical to
    {!process}; the recording overhead is paid only on accesses that
    trigger cases.  A run must use either {!process} or {!process_attr}
    consistently (both maintain the same counting state, but only this
    one maintains writer provenance). *)

val invalidate_others : t -> me:int -> line:int -> unit
(** Drop [line] from every other thread's state (write-invalidate
    ablation). *)

val holds : t -> tid:int -> int -> bool
(** Does thread [tid]'s stack hold the line (for tests)? *)

val threads : t -> int
