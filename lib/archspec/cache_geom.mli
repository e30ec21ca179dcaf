(** Geometry of a single cache level.

    All cache levels in this library are described by the same record; a
    fully-associative cache is one whose [associativity] equals its number of
    lines.  The false-sharing model of the paper simulates private caches as
    fully associative (stack-distance analysis), while the execution
    simulator may use set-associative geometries. *)

type t = {
  name : string;  (** human-readable label, e.g. ["L1d"] *)
  size_bytes : int;  (** total capacity in bytes *)
  line_bytes : int;  (** cache-line size in bytes; must be a power of two *)
  associativity : int;  (** ways per set; [lines t] for fully associative *)
  hit_latency : int;  (** access latency in CPU cycles on a hit *)
}

val v :
  ?hit_latency:int ->
  name:string ->
  size_bytes:int ->
  line_bytes:int ->
  associativity:int ->
  unit ->
  t
(** [v ~name ~size_bytes ~line_bytes ~associativity ()] builds a geometry.
    @raise Invalid_argument if sizes are not positive, [line_bytes] is not a
    power of two, or [size_bytes] is not a multiple of
    [line_bytes * associativity]. *)

val lines : t -> int
(** Total number of lines the cache can hold. *)

val sets : t -> int
(** Number of sets ([lines t / associativity]). *)

val fully_associative : t -> bool

val line_shift : int -> int
(** [line_shift line_bytes] is log2 of a power-of-two line size: byte
    [addr] lies on line [addr asr line_shift line_bytes], the address
    divided by the line size rounded toward minus infinity, so an address
    below zero lands on a line below zero.  Every engine maps addresses
    to lines this way.
    @raise Invalid_argument if [line_bytes] is not a power of two. *)

val line_of_addr : t -> int -> int
(** [line_of_addr t addr] is the line holding byte [addr]:
    [addr asr line_shift t.line_bytes]. *)

val set_of_line : t -> int -> int
(** [set_of_line t line] is the set a given line index maps to. *)

val pp : Format.formatter -> t -> unit
