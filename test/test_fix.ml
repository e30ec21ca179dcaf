(* The fix loop's invariants beyond the golden transcripts: every
   materialized fix round-trips byte-stably through the pretty-printer,
   its before and after counts equal the Reference engine's, a
   verification runs the Reference engine only where the closed form
   declines, verdicts do not depend on the Par_sweep domain count, the
   nothing-to-fix path is an explicit exit-0 notice at the service
   layer, and the cache keys keep fix/eliminate/advise responses
   apart while excluding the jobs knob. *)

let threads = 8

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let parallel_funcs checked =
  Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog

(* Every (kernel, function) pair across both registry tiers whose
   advised plan materializes a fix — the same population `make
   fix-verify` gates on. *)
let verdicts =
  lazy
    (List.concat_map
       (fun k ->
         let checked = Kernels.Kernel.parse k in
         List.filter_map
           (fun func ->
             let advice = Fsmodel.Advisor.advise ~threads ~func checked in
             match Analysis.Fixer.verify ~advice ~threads ~func checked with
             | Analysis.Fixer.Fix v -> Some (k.Kernels.Kernel.name, checked, v)
             | Analysis.Fixer.Nothing_to_fix _ -> None)
           (parallel_funcs checked))
       (Kernels.Registry.all () @ Kernels.Registry.micros ()))

let reparse source =
  Minic.Typecheck.check_program (Minic.Parser.parse_program source)

(* Round-trip comparisons ignore spans and the macro table: the
   transformed program is materialized post-expansion. *)
let strip p = Minic.Ast.erase_spans { p with Minic.Ast.macros = [] }

let test_roundtrip () =
  let vs = Lazy.force verdicts in
  Alcotest.(check bool) "some fixes materialize" true (vs <> []);
  List.iter
    (fun (name, _, v) ->
      Alcotest.(check bool)
        (name ^ ": verdict says it round-trips")
        true v.Analysis.Fixer.roundtrip_ok;
      let re = reparse v.Analysis.Fixer.source in
      Alcotest.(check bool)
        (name ^ ": reparse equals transformed AST")
        true
        (strip re.Minic.Typecheck.prog
        = strip v.Analysis.Fixer.transformed.Minic.Typecheck.prog);
      (* pretty is a fixed point: printing the reparse reproduces the
         emitted source byte for byte *)
      Alcotest.(check string)
        (name ^ ": pretty-printed source is byte-stable")
        v.Analysis.Fixer.source
        (Minic.Pretty.program_to_string re.Minic.Typecheck.prog))
    vs

(* The Reference engine stays the oracle of the reported counts: the
   request takes the certified closed form where it applies, so the
   Reference recount lives here, over every nest of the original and of
   the transformed program. *)
let reference_fs ~func checked =
  let cfg = Fsmodel.Model.default_config ~threads () in
  List.fold_left
    (fun acc nest ->
      acc
      + (Fsmodel.Model.run ~engine:`Reference cfg ~nest ~checked)
          .Fsmodel.Model.fs_cases)
    0
    (Loopir.Lower.lower_all checked ~func
       ~params:[ ("num_threads", threads) ])

let test_counts_are_reference () =
  List.iter
    (fun (name, checked, v) ->
      let open Analysis.Fixer in
      Alcotest.(check int)
        (name ^ ": before N_fs = Reference engine")
        (reference_fs ~func:v.func checked)
        v.before.fs_ref;
      Alcotest.(check int)
        (name ^ ": after N_fs = Reference engine")
        (reference_fs ~func:v.func v.transformed)
        v.after.fs_ref)
    (Lazy.force verdicts)

(* With the advice swept beforehand, a verification runs the Fast engine
   on each nest before and after the fix, and the Reference engine only
   where the closed form does not certify: heat's nests certify, neither
   of transpose's does.  The closed form itself is estimated once per
   nest: the count and the analytic cost share the estimate. *)
let test_model_runs () =
  List.iter
    (fun (name, want) ->
      let k =
        match Kernels.Registry.find name with
        | Some k -> k
        | None -> Alcotest.failf "%s kernel missing" name
      in
      let checked = Kernels.Kernel.parse k in
      let func = k.Kernels.Kernel.func in
      let advice = Fsmodel.Advisor.advise ~threads ~func checked in
      let runs = Fsmodel.Model.run_count ()
      and estimates = Analysis.Closed_form.estimate_count () in
      let nests =
        match Analysis.Fixer.verify ~advice ~threads ~func checked with
        | Analysis.Fixer.Fix v ->
            let count c =
              List.length
                (Loopir.Lower.lower_all c ~func
                   ~params:[ ("num_threads", threads) ])
            in
            count checked + count v.Analysis.Fixer.transformed
        | Analysis.Fixer.Nothing_to_fix r -> Alcotest.failf "%s: %s" name r
      in
      Alcotest.(check int)
        (name ^ ": Model.run calls")
        want
        (Fsmodel.Model.run_count () - runs);
      Alcotest.(check int)
        (name ^ ": closed-form estimates, one per nest")
        nests
        (Analysis.Closed_form.estimate_count () - estimates))
    [ ("heat", 2); ("transpose", 4) ]

(* Everything a caller can observe from a verdict, minus the AST. *)
let observables v =
  let open Analysis.Fixer in
  ( ( v.before.fs_fast,
      v.before.fs_ref,
      v.after.fs_fast,
      v.after.fs_ref,
      v.before.races,
      v.after.races ),
    (v.before.cost, v.after.cost, v.removal, v.cost_ratio),
    (v.roundtrip_ok, v.engines_agree, v.verified),
    v.source )

let test_jobs_determinism () =
  let k =
    match Kernels.Registry.find "struct_xy" with
    | Some k -> k
    | None -> Alcotest.fail "struct_xy kernel missing"
  in
  let checked = Kernels.Kernel.parse k in
  let func = List.hd (parallel_funcs checked) in
  let run domains =
    let advice = Fsmodel.Advisor.advise ~domains ~threads ~func checked in
    match Analysis.Fixer.verify ~advice ~threads ~func checked with
    | Analysis.Fixer.Fix v -> observables v
    | Analysis.Fixer.Nothing_to_fix r -> Alcotest.fail ("nothing to fix: " ^ r)
  in
  Alcotest.(check bool)
    "verdict identical at 1 and 4 sweep domains" true
    (run 1 = run 4)

let test_nothing_to_fix () =
  let store = Service.Api.create_store () in
  let content = read_file "fixtures/padded_struct.c" in
  let source = Service.Req.Text { name = "padded_struct.c"; content } in
  let check label kind =
    let p = Service.Api.exec store (Service.Req.v source kind) in
    Alcotest.(check int) (label ^ " exits 0") 0 p.Service.Api.code;
    Alcotest.(check bool)
      (label ^ " prints an explicit notice")
      true
      (contains p.Service.Api.err "nothing to fix")
  in
  check "eliminate" (Service.Req.Eliminate { func = None; threads });
  check "fix" (Service.Req.Fix { func = None; threads; jobs = None; json = false })

let test_cache_keys () =
  let source = Service.Req.Kernel "struct_xy" in
  let key kind =
    match Service.Req.cache_key (Service.Req.v source kind) with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  let fix ?(jobs = None) ?(json = false) () =
    Service.Req.Fix { func = None; threads; jobs; json }
  in
  let kf = key (fix ()) in
  Alcotest.(check bool)
    "fix and eliminate cache separately" true
    (kf <> key (Service.Req.Eliminate { func = None; threads }));
  Alcotest.(check bool)
    "fix and advise cache separately" true
    (kf <> key (Service.Req.Advise { func = None; threads; jobs = None }));
  (* jobs only parallelizes the sweep — identical results, shared key *)
  Alcotest.(check string) "jobs is not in the fix key" kf
    (key (fix ~jobs:(Some 4) ()));
  Alcotest.(check bool)
    "json output shape is in the fix key" true
    (kf <> key (fix ~json:true ()))

let () =
  Alcotest.run "fix"
    [
      ( "fix",
        [
          Alcotest.test_case "roundtrip" `Slow test_roundtrip;
          Alcotest.test_case "counts-are-reference" `Slow
            test_counts_are_reference;
          Alcotest.test_case "model-runs" `Quick test_model_runs;
          Alcotest.test_case "jobs-determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "nothing-to-fix" `Quick test_nothing_to_fix;
          Alcotest.test_case "cache-keys" `Quick test_cache_keys;
        ] );
    ]
