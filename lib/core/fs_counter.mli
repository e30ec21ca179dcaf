(** The model's FS-counting engine: per-thread stack-distance cache states
    plus a per-line mask of which threads hold the line in written state.
    Semantically identical to folding {!Detect.fs_cases_for_insert} over
    the states (tests cross-check the two); this version makes the
    1-to-All comparison a SWAR popcount and finds a line's state by array
    index, with no hash probe within 4 GiB of address.

    {b Layout.} Each thread keeps a {!Cachesim.Slot_list} recency list
    keyed by line, of the capacity {!create} is given.  Lines live in
    pages of 1,024: page number [line asr 10], offset [line land 1023],
    so negative and far-apart lines work.  A page holds ⌈threads / 62⌉
    writer-mask words per line and, per (line, thread), that thread's
    list slot (0 = not held): 2 bytes, or 4 when the capacity exceeds
    65,535 (fixed in {!create}).  Once {!process_attr} has served a page,
    the page also holds a 4-byte last writing reference per (line,
    thread).  A page table indexed by page number covers the touched
    window of page numbers and grows by doubling, up to 65,536 page
    numbers (2{^26} lines, 4 GiB of address); a page beyond that window,
    which only a subscript reaching gigabytes past its array touches, is
    found through a {!Cachesim.Int_table} instead, so the table stays
    bounded however far apart the lines are.

    {b Memory.} A page is taken on the first insertion of one of its lines
    and returns to a per-counter pool when no thread holds any of its
    lines, so the pages in use are at most the pages holding a resident
    line: memory follows the resident set ([threads x capacity] lines at
    most), not the address range.  A page costs 1,024 x (2 x threads, or
    4 x threads for wide slots, + 8 x ⌈threads / 62⌉) bytes, plus
    4 x threads x 1,024 in attributed runs: 24 KiB at 8 threads, 104 KiB
    at 48.  The page table costs one word per page number of its window,
    512 KiB at most.

    {b Allocation.} {!process} and {!process_attr} allocate only while
    the recency lists, the page tables and the pool grow; in steady state,
    page churn included (released pages are reused from the pool), they
    allocate nothing. *)

type t

val create : threads:int -> capacity:int -> t
(** [capacity] lines per thread; [max_int] for an unbounded stack.
    @raise Invalid_argument when [threads < 1] or [capacity < 1]. *)

val process : t -> me:int -> line:int -> written:bool -> int
(** Count the FS cases triggered by thread [me] inserting [line] (the φ
    comparison against all other states), then insert it.  One load finds
    [me]'s slot for the line: a hit moves it to the top of [me]'s list, a
    miss inserts it and clears the evicted line's entry by index.  Then
    the line's writer mask is counted, excluding [me], and [me] is marked
    when [written]. *)

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
