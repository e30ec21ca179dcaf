(** An LRU stack over integer keys (cache-line indices) with an arbitrary
    payload per entry.

    This is the data structure behind the paper's stack-distance analysis
    (§III-C): most-recently-used on top, least-recently-used at the bottom,
    eviction from the bottom when capacity is exceeded — i.e. a fully
    associative LRU cache.  All operations are O(1) except {!distance} and
    {!to_alist}.

    Entries live in a {!Slot_list} (slot-indexed key, previous and next
    int arrays) plus one payload array (absent while every payload is the
    first one stored), found through an {!Int_table} index; removed slots
    are reused and a stack at capacity reuses the evicted slot for the
    incoming key.  The arrays grow with the resident set, never past the
    capacity.
    {!promote}, {!add}, {!touch}, {!get} and {!remove_key} look the key
    up once and allocate nothing in steady state.

    A slot (as returned by {!promote} or {!lru_slot}) names one entry for
    as long as that entry is resident. *)

type 'a t

val no_key : int
(** Sentinel ([min_int]) returned by {!add} when nothing was evicted;
    never a valid key. *)

val create : capacity:int -> 'a t
(** [capacity] is the maximum number of entries; use [max_int] for an
    unbounded stack.  @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val size : 'a t -> int
val mem : 'a t -> int -> bool
val find : 'a t -> int -> 'a option
(** [find] does not touch recency. *)

val promote : 'a t -> int -> int
(** [promote t key] moves [key] to the top and returns its slot, or [-1]
    when absent. *)

val value_at : 'a t -> int -> 'a
(** The payload of the entry in a slot. *)

val set_at : 'a t -> int -> 'a -> unit
(** Replace the payload of the entry in a slot (recency unchanged). *)

val add : 'a t -> int -> 'a -> int
(** [add t key payload] inserts an absent [key] at the top and returns the
    key it evicted from the bottom, or {!no_key}.  The index probe that
    places [key] also checks that it is absent, so [promote] followed by
    [add] on a miss costs one lookup.
    @raise Invalid_argument if [key] is present (the stack is unchanged). *)

val lru_slot : 'a t -> int
(** Slot of the bottom (least-recently-used) entry — the one the next
    {!add} at capacity evicts — or [-1] when empty. *)

val access : 'a t -> int -> 'a -> (int * 'a) option
(** [access t key payload] inserts [key] at the top (or moves it to the top,
    replacing its payload).  Returns the evicted bottom entry if the insert
    overflowed capacity. *)

val touch : 'a t -> int -> bool
(** [touch t key] moves [key] to the top if present (payload unchanged);
    [false] when absent. *)

val get : 'a t -> int -> default:'a -> 'a
(** Allocation-free {!find}; does not touch recency. *)

val remove_key : 'a t -> int -> bool
(** Allocation-free {!remove}; [true] when the key was present. *)

val update : 'a t -> int -> ('a -> 'a) -> bool
(** Update the payload in place without touching recency; returns [false]
    when absent. *)

val remove : 'a t -> int -> 'a option
(** Remove an entry (invalidation). *)

val distance : 'a t -> int -> int option
(** 0-based stack distance of a key: the number of distinct entries above
    it.  O(distance). *)

val to_alist : 'a t -> (int * 'a) list
(** Entries from most- to least-recently used. *)

val clear : 'a t -> unit
