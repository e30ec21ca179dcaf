(** A write-invalidate MESI-coherent memory hierarchy for [n] cores:
    per-core private L1+L2 ({!Private_cache}), one shared L3 per socket, a
    directory tracking holders and the dirty owner of every line, and
    word-granularity classification of invalidation misses into true and
    false sharing.

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

val create : ?cores:int -> Archspec.Arch.t -> t
(** [cores] defaults to [arch.cores].  Word granularity for true/false
    sharing classification is 4 bytes. *)

val access : t -> core:int -> addr:int -> size:int -> write:bool -> result
(** Perform one memory access.  @raise Invalid_argument for a bad core id
    or non-positive size.  An access spanning a line boundary is split and
    the latencies summed; its source and miss are those of the first piece
    that missed, else of the first piece. *)

val access_latency :
  t -> core:int -> addr:int -> size:int -> write:bool -> int
(** {!access} returning only the latency: the simulator's per-access
    path.  It probes the directory at most once per line touched and
    allocates nothing, except one directory entry for a line no core has
    touched before.  The counters in {!stats_of_core} are updated exactly
    as by {!access}. *)

val read : t -> core:int -> addr:int -> size:int -> result
val write : t -> core:int -> addr:int -> size:int -> result

val stats_of_core : t -> int -> Stats.t
val aggregate_stats : t -> Stats.t

val holders_of_line : t -> int -> int list
(** Cores currently holding a line (for tests). *)

val dirty_owner_of_line : t -> int -> int option

val word_mask : line_bytes:int -> addr:int -> size:int -> int
(** Bitmask of the 4-byte words of a line touched by an access (exposed for
    tests). *)
