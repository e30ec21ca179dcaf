(** One core's private cache hierarchy (inclusive L1 + L2), tracking line
    membership and recency.  Coherence state lives in {!Coherence}.

    Both levels are modeled as fully associative LRU stacks of the
    configured capacity (the paper's fully-associative argument, §III-C,
    applied to the simulator as well); {!Set_assoc} offers the
    set-associative variant for the ablation study. *)

type t

type hit = L1_hit | L2_hit | Priv_miss

val create : l1:Archspec.Cache_geom.t -> l2:Archspec.Cache_geom.t -> t

val hit_l1 : int
val hit_l2 : int
val miss : int

val access_fast : t -> int -> int
(** Allocation-free {!access}: [{!hit_l1}] = L1 hit, [{!hit_l2}] = L2 hit,
    [{!miss}] = miss with no eviction, and any value [>= 0] is a miss that
    evicted that line from the hierarchy. *)

val access : t -> int -> hit * int option
(** [access t line] touches a line: on [L1_hit] recency is updated; on
    [L2_hit] the line is promoted into L1; on [Priv_miss] the line is filled
    into both levels.  The second component is the line leaving the private
    hierarchy entirely (an L2 eviction, with back-invalidation of L1),
    which the caller must report to the directory. *)

val invalidate : t -> int -> bool
(** Drop a line from both levels; [true] if it was present. *)

val holds : t -> int -> bool
