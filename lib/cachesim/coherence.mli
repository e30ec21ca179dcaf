(** A write-invalidate MESI-coherent memory hierarchy for [n] cores:
    per-core private inclusive L1+L2, one shared L3 per socket, a
    directory tracking holders and the dirty owner of every line, and
    word-granularity classification of invalidation misses into true and
    false sharing.  Every level is a fully associative LRU cache of the
    configured capacity (the paper's fully-associative argument, §III-C,
    applied to the simulator as well).

    The model covers a fixed address space of [lines] cache lines and
    keeps its state in arrays indexed by line: the directory's holder
    mask, dirty owner and dirty words per line, one word per (line, core)
    packing the core's pending-words mask with its L1 and L2 recency-list
    slots ({!Slot_list}), and one L3 slot per (line, socket).  An access
    therefore finds its state without a hash probe, and memory is about
    one word per (line, core), allocated up front.

    This is the repo's stand-in for the paper's 48-core testbed: the
    execution simulator drives it with per-thread memory traces and reads
    back latencies, so that "measured" loop times (paper Tables I–III,
    column 2–3) can be produced deterministically. *)

type t

type source = L1 | L2 | L3 | C2C | Memory
(** Where the data was found. *)

type miss_kind = Cold | Capacity | Coherence_true | Coherence_false

type result = {
  latency : int;  (** stall cycles charged to the access *)
  source : source;
  miss : miss_kind option;  (** [None] on private-hierarchy hits *)
}

val max_cores : int
(** The most cores a model can have: a line's holders are one [int] bit
    mask (63 on 64-bit hosts). *)

val create : ?cores:int -> lines:int -> Archspec.Arch.t -> t
(** A model of addresses [0 .. lines * line_bytes - 1] with every line
    untouched.  [cores] defaults to [arch.cores].  Word granularity for
    true/false sharing classification is 4 bytes.
    @raise Invalid_argument when [cores] is below 1 or above
    {!max_cores}, [lines] is negative, or the pending-word mask and the
    L1 and L2 slots of the geometry do not fit in 62 bits. *)

val access : t -> core:int -> addr:int -> size:int -> write:bool -> result
(** Perform one memory access.  An access spanning a line boundary is
    split and the latencies summed; its source and miss are those of the
    first piece that missed, else of the first piece.
    @raise Invalid_argument for a bad core id, a non-positive size or a
    byte outside the model's address space. *)

val access_latency :
  t -> core:int -> addr:int -> size:int -> write:bool -> int
(** {!access} returning only the latency: the simulator's per-access
    path.  It makes no hash probe and allocates nothing, a line's first
    touch included, except while a recency list doubles its arrays as its
    cache fills.  The counters in {!stats_of_core} are updated exactly as
    by {!access}. *)

val read : t -> core:int -> addr:int -> size:int -> result
val write : t -> core:int -> addr:int -> size:int -> result

val stats_of_core : t -> int -> Stats.t
val aggregate_stats : t -> Stats.t

val holders_of_line : t -> int -> int list
(** Cores currently holding a line, in increasing order (for tests); [[]]
    for a line outside the address space. *)

val dirty_owner_of_line : t -> int -> int option

val word_mask : line_bytes:int -> addr:int -> size:int -> int
(** Bitmask of the 4-byte words of a line touched by an access (exposed for
    tests). *)
