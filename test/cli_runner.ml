(* Drives the fsdetect binary through its user-facing exit-code paths —
   the --fail-on gate, malformed input, unbound identifiers, bad flags —
   and records exit status plus stderr into a transcript that runtest
   diffs against golden/cli.out.

   Stderr is captured only where the text is produced by fsdetect
   itself; cmdliner's own usage errors (exit 124) are recorded as exit
   codes alone so the golden file does not depend on the installed
   cmdliner version.  A few cases also record stdout, where the answer
   itself is what the case pins. *)

type capture = Code_only | With_stderr | With_output

let scenarios =
  [
    (* the --fail-on gate: race (default), fs, never *)
    (With_stderr, "lint --no-fixits --fail-on race fixtures/racy_stencil.c");
    (With_stderr, "lint --no-fixits --fail-on race fixtures/struct_adjacent.c");
    (With_stderr, "lint --no-fixits --fail-on fs fixtures/struct_adjacent.c");
    (With_stderr, "lint --no-fixits --fail-on never fixtures/racy_stencil.c");
    (* --fail-on never must not mask hard errors *)
    (With_stderr, "lint --no-fixits --fail-on never fixtures/bad_syntax.c");
    (* malformed input: parse and type errors *)
    (With_stderr, "lint --no-fixits fixtures/bad_syntax.c");
    (With_stderr, "lint --no-fixits fixtures/bad_type.c");
    (* unbound size parameter: clean diagnostic, not an internal error *)
    (With_stderr, "analyze fixtures/parametric_stride.c --func scale");
    (With_stderr, "lint --no-fixits -p n=1024 fixtures/parametric_stride.c");
    (* cmdliner-level errors: missing file, invalid enum value *)
    (Code_only, "lint --no-fixits fixtures/no_such_file.c");
    (Code_only, "lint --fail-on bogus fixtures/racy_stencil.c");
    (* schedule flags are validated by fsdetect itself: actionable
       stderr and exit 2 *)
    (With_stderr, "lint --no-fixits --schedule bogus fixtures/struct_adjacent.c");
    (With_stderr,
     "lint --no-fixits --schedule dynamic,0 fixtures/struct_adjacent.c");
    (With_stderr, "lint --no-fixits --seeds 0 fixtures/struct_adjacent.c");
    (With_stderr,
     "lint --no-fixits --schedule static,4 --chunk 2 fixtures/struct_adjacent.c");
    (With_stderr,
     "explain --schedule work-stealing,nope fixtures/struct_adjacent.c");
    (* team and chunk sizes below 1: rejected by the option parser, and
       by the pragma parser at the pragma's line *)
    (Code_only, "lint --no-fixits -k heat --chunk 0");
    (Code_only, "explain -k heat --chunk 0");
    (Code_only, "explain -k heat -t 0");
    (Code_only, "analyze -k heat --fs-chunk 0");
    (Code_only, "analyze -k heat --nfs-chunk 0");
    (Code_only, "analyze -k heat -t 0");
    (With_stderr, "lint --no-fixits fixtures/bad_zero_chunk.c");
    (* eliminate/fix on a nest with nothing to fix: explicit notice on
       stderr, exit 0 (the bugfix pinned here: an empty plan is not
       silence) *)
    (With_stderr, "eliminate fixtures/padded_struct.c");
    (With_stderr, "fix fixtures/padded_struct.c");
    (* a plan whose nest counts no false sharing at this team size (one
       thread) is nothing to fix too, not an unverified fix *)
    (With_stderr, "fix -k saxpy -t 1");
    (* a verified fix exits 0; an unbound size parameter gets the same
       clean diagnostic (and exit 1) as analyze *)
    (With_stderr, "fix fixtures/struct_adjacent.c");
    (With_stderr, "fix fixtures/parametric_stride.c --func scale");
    (* loop bounds that do not evaluate: a division by zero and a read
       from memory are analysis errors (exit 1), not internal ones *)
    (With_stderr, "explain -p k=0 fixtures/zero_divisor.c");
    (With_stderr, "explain fixtures/memory_bound.c");
    (With_stderr, "analyze fixtures/memory_bound.c");
    (With_stderr, "advise fixtures/memory_bound.c");
    (With_stderr, "fix fixtures/memory_bound.c");
    (With_stderr, "eliminate fixtures/memory_bound.c");
    (* the simulated multicore has at most 63 cores (a line's holders
       are one int): a larger team is a flag error, not a corrupted
       directory *)
    (With_stderr, "simulate saxpy -t 64");
    (With_stderr, "compare saxpy -t 64");
    (* an interleave window below 1 is a usage error, like -t 0 *)
    (With_stderr, "simulate saxpy --window 0");
    (* a subscript below the first global lands on line -1 in every
       path: lint's count and its top pairs, both engines, the heatmap
       and the fix's engine cross-check all read the same cases *)
    (With_output, "lint -t 4 fixtures/negative_offset.c");
    (With_output, "explain -t 4 fixtures/negative_offset.c");
    (With_output, "explain --engine reference -t 4 fixtures/negative_offset.c");
    (With_output, "explain --format heatmap -t 4 fixtures/negative_offset.c");
    (With_output, "fix -t 4 fixtures/negative_offset.c");
    (* a stride of 10^11 elements: the analytic paths walk the eight
       lines touched, not the 5.6 TB between them *)
    (With_output, "explain -t 4 fixtures/far_stride.c");
    (With_output, "analyze --cost-model analytic -t 4 fixtures/far_stride.c");
  ]

let () =
  let exe = Sys.argv.(1) and out = Sys.argv.(2) in
  let buf = Buffer.create 4096 in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  List.iter
    (fun (cap, args) ->
      let tmp = Filename.temp_file "fsdetect_cli" ".err" in
      let out = Filename.temp_file "fsdetect_cli" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
             (Filename.quote out) (Filename.quote tmp))
      in
      Buffer.add_string buf
        (Printf.sprintf "== fsdetect %s\nexit: %d\n" args code);
      (match cap with
      | Code_only -> ()
      | With_stderr | With_output ->
          let s = read tmp in
          if String.length s > 0 then
            Buffer.add_string buf ("stderr:\n" ^ s));
      (match cap with
      | With_output -> Buffer.add_string buf ("stdout:\n" ^ read out)
      | Code_only | With_stderr -> ());
      Buffer.add_char buf '\n';
      Sys.remove tmp;
      Sys.remove out)
    scenarios;
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc
