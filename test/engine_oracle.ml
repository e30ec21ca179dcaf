(* The fast engine's contract is bit-identical results to the reference
   transcription of the paper's procedure (Model.run ~engine:`Reference),
   in every result field, on the static deal and on replayed plans. *)

open Fsmodel

let check = Alcotest.check

let sample =
  Alcotest.testable
    (fun ppf (s : Model.run_sample) ->
      Format.fprintf ppf "(run %d, fs %d)" s.Model.chunk_run
        s.Model.cumulative_fs)
    ( = )

(* run both engines on one lowered nest and insist on identical results *)
let assert_engines_agree ~what ?max_chunk_runs cfg ~nest ~checked =
  let go engine =
    Model.run ?max_chunk_runs ~record_samples:true ~engine cfg ~nest ~checked
  in
  let fast = go `Fast and refr = go `Reference in
  check Alcotest.int (what ^ ": fs_cases") refr.Model.fs_cases
    fast.Model.fs_cases;
  check Alcotest.int (what ^ ": thread_steps") refr.Model.thread_steps
    fast.Model.thread_steps;
  check Alcotest.int
    (what ^ ": iterations_evaluated")
    refr.Model.iterations_evaluated fast.Model.iterations_evaluated;
  check Alcotest.int (what ^ ": chunk_runs") refr.Model.chunk_runs
    fast.Model.chunk_runs;
  check Alcotest.bool (what ^ ": truncated") refr.Model.truncated
    fast.Model.truncated;
  check (Alcotest.list sample) (what ^ ": samples") refr.Model.samples
    fast.Model.samples;
  check Alcotest.int (what ^ ": steals") refr.Model.steals fast.Model.steals
