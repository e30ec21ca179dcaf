(** A bounded doubly-linked recency list over slot-indexed int arrays:
    O(1) insert at the top, move-to-top, removal and bottom eviction, with
    no heap node per entry, so link writes are plain int stores.

    Each entry lives in a {e slot}, a small positive int that names it for
    as long as it is resident.  The list stores one int key per slot but
    does not index keys: a caller finds an entry's slot itself, by a hash
    table ({!Lru_stack}) or by an array indexed by the key
    ({!Coherence}).  Removed slots are reused, a list at capacity reuses
    the evicted slot for the incoming key, and the arrays grow with the
    resident set, never past [capacity + 1] slots.  Nothing allocates
    except that growth. *)

type t

val no_key : int
(** Sentinel ([min_int]) for "no key": never a valid key. *)

val create : capacity:int -> t
(** [capacity] is the maximum number of entries; use [max_int] for an
    unbounded list.  @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val size : t -> int

val slots : t -> int
(** Current length of the slot arrays: every slot handed out is below it.
    A caller keeping a per-slot payload array sizes it from this. *)

val key_at : t -> int -> int
(** The key in a resident slot. *)

val top : t -> int
(** The most-recently-used slot, or [0] when empty. *)

val next : t -> int -> int
(** The slot below a resident one (toward the LRU end), or [0] past the
    bottom. *)

val lru : t -> int
(** The bottom (least-recently-used) slot, or [-1] when empty. *)

val move_to_top : t -> int -> unit
(** Make a resident slot the most recently used. *)

val insert : t -> int -> int
(** [insert t key] puts an absent [key] on top and returns its slot.  At
    capacity it reuses the bottom slot; {!evicted} then names the key that
    slot held. *)

val evicted : t -> int
(** The key the last {!insert} evicted, or {!no_key}. *)

val remove : t -> int -> unit
(** Unlink a resident slot and free it for reuse. *)

val clear : t -> unit
