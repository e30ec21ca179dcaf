(** Step 4 of the paper's method (§III-D): the 1-to-All comparison.

    For a cache line [cl] newly inserted into thread [k]'s state, the number
    of false-sharing cases is [Σ_{j≠k} φ(cs_j, cl)] where [φ] is 1 iff
    thread [j]'s state holds [cl] in written (modified) state — Eqs. 2–4,
    with the mask excluding [j = k]. *)

val fs_cases_for_insert :
  states:Thread_cache_state.t array -> me:int -> line:int -> int
(** Count of other threads holding [line] modified. *)
