(** FS elimination advisor — the paper's stated future work (§VI) built on
    the cost model: search chunk sizes for the smallest one that removes
    (almost all) false sharing, and point at the victim data structures
    with a padding suggestion.

    The chunk search uses the §III-E predictor, so advice costs a few
    chunk runs per candidate, not a full-loop evaluation. *)

type victim = {
  base : string;  (** the falsely-shared array *)
  repr : string;  (** a representative written reference *)
  parallel_stride : int;
      (** bytes between consecutive parallel iterations' writes *)
  padding_bytes : int;
      (** padding per element that would push neighbours onto distinct
          lines *)
}

type advice = {
  threads : int;
  sweep : (int * int) list;  (** (chunk, predicted FS cases), ascending *)
  best_chunk : int option;
      (** smallest candidate whose FS is below [threshold] of chunk 1's
          (None when even the largest candidate does not reach it) *)
  victims : victim list;  (** written refs whose stride < line size *)
}

val find_victims : line_bytes:int -> Loopir.Loop_nest.t -> victim list
(** Syntactic victim scan over one lowered nest: written references whose
    stride between consecutive parallel iterations is positive but below
    [line_bytes], deduplicated by base array.  {!advise} runs this on the
    function's first nest; [Transform.plan] runs it on every nest. *)

val advise :
  ?arch:Archspec.Arch.t ->
  ?chunks:int list ->
  ?domains:int ->
  threads:int ->
  func:string ->
  Minic.Typecheck.checked ->
  advice
(** Predicts each candidate chunk (default [1;2;4;8;16;32;64]) from 16
    chunk runs and recommends the smallest whose count falls to 5% of the
    first's.  The candidate sweep runs through {!Par_sweep.map}
    ([domains] defaults to the recommended domain count; results are
    identical at any domain count). *)

val pp : Format.formatter -> advice -> unit
