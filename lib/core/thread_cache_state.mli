(** Step 3 of the paper's method (§III-C): one thread's cache state — a
    fully-associative LRU stack of cache lines, each tagged with whether
    this thread has written it (the "W" state the φ function tests).

    The stack-distance analysis is exactly the paper's: insert at the top,
    move-to-top on re-access, evict from the bottom when the number of
    distinct lines exceeds the stack size. *)

type t

val create : capacity:int -> t
(** [capacity] in lines; use [max_int] for the unbounded-stack
    ablation. *)

val insert : t -> line:int -> written:bool -> (int * bool) option
(** Insert or refresh a line with one probe of the stack; a line once
    written stays in written state (it is dirty until evicted).  Returns
    the LRU entry (line, written) evicted by the insertion, if any. *)

val holds : t -> int -> bool
(** Does this state contain the line (in any state)? *)

val holds_modified : t -> int -> bool
(** The φ test: does this state contain the line in written state? *)

val invalidate : t -> int -> bool
(** Drop a line (only used by the write-invalidate ablation). *)

val size : t -> int
(** Distinct lines currently held. *)

val clear : t -> unit
(** Empty the stack (between chunk runs / configurations). *)
