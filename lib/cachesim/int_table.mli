(** An open-addressing hash table specialized for [int] keys.

    Replaces generic [Hashtbl] on the simulation hot paths: multiplicative
    integer hashing (no polymorphic hash), linear probing over a flat key
    array (no bucket chains, no boxed key cells), backward-shift deletion
    (no tombstones).  Lookups allocate nothing: {!find_slot} and {!probe}
    are loops that return a slot index for {!value_at} / {!set_at} /
    {!add_at} / {!remove_at}, so a caller can read, update, insert or
    delete a key with a single probe.

    Keys may be any [int] except [absent_key] (cache-line indices and byte
    addresses are non-negative, so this never bites in practice). *)

type 'a t

val absent_key : int
(** The reserved key ([min_int]). *)

val create : ?initial:int -> unit -> 'a t
(** [initial] is a capacity hint (rounded up to a power of two). *)

val length : 'a t -> int

val find_slot : 'a t -> int -> int
(** Slot of a key, or [-1] when absent.  Slots are invalidated by the next
    insertion, removal or [clear]. *)

val probe : 'a t -> int -> int
(** The slot holding a key, or else the empty slot where it would be
    inserted; [key_at t (probe t k) = k] tells the two apart.  Same
    validity as {!find_slot}. *)

val key_at : 'a t -> int -> int
(** The key in a slot ({!absent_key} for an empty one). *)

val value_at : 'a t -> int -> 'a
val set_at : 'a t -> int -> 'a -> unit
(** Replace the value in an occupied slot (no rehash, no resize). *)

val add_at : 'a t -> int -> int -> 'a -> unit
(** [add_at t s k v] inserts the absent key [k] at [s = probe t k],
    growing the table (and re-probing) when the load would pass 3/4.
    @raise Invalid_argument if [k] is {!absent_key} or [s] is occupied. *)

val remove_at : 'a t -> int -> unit
(** Delete the entry in an occupied slot (backward shift). *)

val mem : 'a t -> int -> bool
val get : 'a t -> int -> default:'a -> 'a
(** Lookup without allocation; [default] when absent. *)

val find_opt : 'a t -> int -> 'a option
val set : 'a t -> int -> 'a -> unit
(** Insert or replace (one {!probe}). *)

val remove : 'a t -> int -> bool
(** [true] when the key was present. *)

val clear : 'a t -> unit
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
