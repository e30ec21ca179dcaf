(** Word-level population counts: a branch-free SWAR {!popcount} over a
    single OCaml [int], for bit masks held one word at a time
    ([Fsmodel.Fs_counter]'s writer masks, {!Coherence}'s holder masks). *)

val popcount : int -> int
(** Number of set bits, constant time (SWAR over two 32-bit halves —
    OCaml's 63-bit [int] cannot hold the usual 64-bit magic constants). *)
