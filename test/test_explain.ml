(* The attribution layer's contract: per-pair counts conserve to the
   engine's fs_cases on every bundled kernel and both engines, the fast
   and reference recorders agree event for event, the trace ring is
   bounded without perturbing the aggregates, the trace_event export is
   well-formed JSON, and lint findings carry the attribution summary. *)

let check = Alcotest.check

let configs = [ (2, None, None); (8, Some 4, None) ]

(* replayed dynamic,1 and ws,2 plans, two seeds each, on small instances
   (every case also runs the reference engine) *)
let plan_kernels () =
  [
    Kernels.Heat.kernel ~rows:6 ~cols:520 ();
    Kernels.Saxpy.kernel ~n:640 ();
    Kernels.Transpose.kernel ~n:48 ();
  ]

let plan_configs =
  List.concat_map
    (fun kind -> List.map (fun seed -> (4, None, Some (kind, seed))) [ 0; 1 ])
    [
      Ompsched.Dispatch.Dynamic { chunk = 1 };
      Ompsched.Dispatch.Work_stealing { chunk = 2 };
    ]

let with_kernels ?(kernels = Kernels.Registry.all ()) ?(configs = configs) f =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let checked = Kernels.Kernel.parse k in
      List.iter
        (fun (threads, chunk, sched) ->
          let params = [ ("num_threads", threads) ] in
          let nest =
            Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func ~params
          in
          let cfg =
            {
              (Fsmodel.Model.default_config ~threads ()) with
              Fsmodel.Model.chunk;
              params;
              sched;
            }
          in
          let what =
            Printf.sprintf "%s t=%d c=%s%s" k.Kernels.Kernel.name threads
              (match chunk with Some c -> string_of_int c | None -> "pragma")
              (match sched with
              | Some (kind, seed) ->
                  Printf.sprintf " %s seed %d"
                    (Ompsched.Dispatch.kind_name kind)
                    seed
              | None -> "")
          in
          f ~what ~checked ~nest ~cfg ~uri:("kernel:" ^ k.Kernels.Kernel.name)
            ~func:k.Kernels.Kernel.func)
        configs)
    kernels

(* the recorder's pair histogram as a canonical sorted list *)
let pairs_list sink =
  List.sort compare
    (Fsmodel.Attrib.fold_pairs sink ~init:[]
       ~f:(fun acc ~writer_ref ~victim_ref ~writer_tid ~victim_tid ~count ->
         (writer_ref, victim_ref, writer_tid, victim_tid, count) :: acc))

let pair_t =
  Alcotest.(list (pair (pair (pair int int) (pair int int)) int))

let as_pair_t =
  List.map (fun (a, b, c, d, e) -> (((a, b), (c, d)), e))

(* Conservation: on both engines, the recorded total and every
   aggregate view equal the engine count from an attribution-free run. *)
let test_conservation () =
  with_kernels (fun ~what ~checked ~nest ~cfg ~uri ~func ->
      let plain = (Fsmodel.Model.run cfg ~nest ~checked).Fsmodel.Model.fs_cases in
      List.iter
        (fun engine ->
          let a = Explain.analyze ~engine ~uri ~func cfg ~nest ~checked in
          let ename =
            match engine with `Fast -> "fast" | `Reference -> "reference"
          in
          check Alcotest.int
            (what ^ " " ^ ename ^ ": total = plain fs_cases")
            plain a.Explain.total;
          check Alcotest.bool
            (what ^ " " ^ ename ^ ": conservation")
            true
            (Explain.conservation_ok a))
        [ `Fast; `Reference ])

(* Both engines record the same provenance, not just the same count:
   identical pair histograms and identical trace rings, on the static
   deal and on replayed plans. *)
let test_engines_agree () =
  let agree ~what ~checked ~nest ~cfg ~uri ~func =
    let go engine =
      Explain.analyze ~engine ~trace_cap:4096 ~uri ~func cfg ~nest ~checked
    in
    let fast = go `Fast and refr = go `Reference in
    check pair_t
      (what ^ ": pair histograms")
      (as_pair_t (pairs_list refr.Explain.recorder))
      (as_pair_t (pairs_list fast.Explain.recorder));
    let rf = refr.Explain.recorder and ff = fast.Explain.recorder in
    check Alcotest.int (what ^ ": trace_len")
      (Fsmodel.Attrib.trace_len rf)
      (Fsmodel.Attrib.trace_len ff);
    for i = 0 to Fsmodel.Attrib.trace_len rf - 1 do
      let ev r =
        ( Fsmodel.Attrib.trace_step r i,
          Fsmodel.Attrib.trace_line r i,
          Fsmodel.Attrib.trace_writer_tid r i,
          Fsmodel.Attrib.trace_writer_ref r i,
          Fsmodel.Attrib.trace_victim_tid r i,
          Fsmodel.Attrib.trace_victim_ref r i )
      in
      if ev rf <> ev ff then
        Alcotest.failf "%s: trace event %d differs between engines" what i
    done
  in
  with_kernels agree;
  with_kernels ~kernels:(plan_kernels ()) ~configs:plan_configs agree

(* A recorder made without line views (lint's, the fuzz oracle's) keeps
   the same pair histogram and total as explain's, and refuses the
   per-line folds it did not keep. *)
let test_pairs_only_recorder () =
  with_kernels (fun ~what ~checked ~nest ~cfg ~uri ~func ->
      let full = Explain.analyze ~trace_cap:0 ~uri ~func cfg ~nest ~checked in
      let sink =
        Fsmodel.Attrib.create ~trace_cap:0 ~threads:cfg.Fsmodel.Model.threads
          ~nrefs:(List.length nest.Loopir.Loop_nest.refs) ()
      in
      ignore (Fsmodel.Model.run ~attrib:sink cfg ~nest ~checked);
      check Alcotest.int (what ^ ": total")
        (Fsmodel.Attrib.total full.Explain.recorder)
        (Fsmodel.Attrib.total sink);
      check pair_t (what ^ ": pair histogram")
        (as_pair_t (pairs_list full.Explain.recorder))
        (as_pair_t (pairs_list sink));
      match
        Fsmodel.Attrib.fold_lines sink ~init:() ~f:(fun () ~line:_ ~count:_ ->
            ())
      with
      | exception Invalid_argument _ -> ()
      | () ->
          Alcotest.failf "%s: fold_lines on a recorder without line views"
            what)

(* The ring keeps the first [cap] events and only aggregates the rest;
   capping must not change any aggregate. *)
let test_ring_bounded () =
  let k = Option.get (Kernels.Registry.find "stencil1d") in
  let checked = Kernels.Kernel.parse k in
  let params = [ ("num_threads", 8) ] in
  let nest = Loopir.Lower.lower checked ~func:k.Kernels.Kernel.func ~params in
  let cfg = { (Fsmodel.Model.default_config ~threads:8 ()) with params } in
  let full =
    Explain.analyze ~uri:"k" ~func:k.Kernels.Kernel.func cfg ~nest ~checked
  in
  let capped =
    Explain.analyze ~trace_cap:5 ~uri:"k" ~func:k.Kernels.Kernel.func cfg
      ~nest ~checked
  in
  check Alcotest.int "capped ring length" 5
    (Fsmodel.Attrib.trace_len capped.Explain.recorder);
  check Alcotest.int "dropped = total - cap"
    (capped.Explain.total - 5)
    (Fsmodel.Attrib.trace_dropped capped.Explain.recorder);
  check pair_t "aggregates unchanged by the cap"
    (as_pair_t (pairs_list full.Explain.recorder))
    (as_pair_t (pairs_list capped.Explain.recorder));
  for i = 0 to 4 do
    check Alcotest.int
      (Printf.sprintf "ring entry %d is the %dth event" i i)
      (Fsmodel.Attrib.trace_step full.Explain.recorder i)
      (Fsmodel.Attrib.trace_step capped.Explain.recorder i)
  done

(* The Chrome trace export parses and its instant-event count matches
   the retained ring. *)
let test_trace_json () =
  with_kernels (fun ~what ~checked ~nest ~cfg ~uri ~func ->
      let a = Explain.analyze ~trace_cap:512 ~uri ~func cfg ~nest ~checked in
      let s = Analysis.Json.to_string (Explain.trace_json a) in
      match Fuzz.Json_check.validate_trace s with
      | Error m -> Alcotest.failf "%s: invalid trace: %s" what m
      | Ok n ->
          check Alcotest.int
            (what ^ ": instant events = trace_len")
            (Fsmodel.Attrib.trace_len a.Explain.recorder)
            n)

(* Renderers never raise and stay non-empty, whatever the verdict. *)
let test_renderers_total () =
  with_kernels (fun ~what ~checked ~nest ~cfg ~uri ~func ->
      let a = Explain.analyze ~uri ~func cfg ~nest ~checked in
      let text = Explain.to_text ~source:"int x;\n" a in
      let heat = Explain.heatmap a in
      check Alcotest.bool (what ^ ": text non-empty") true (text <> "");
      check Alcotest.bool (what ^ ": heatmap non-empty") true (heat <> ""))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Lint's FS findings carry the top-3 attribution sentences; races and
   parametric findings do not.  Where a kernel's FS findings all share
   one base, those sentences are explain's reference-pair lines at the
   same configuration, word for word and in the same order. *)
let test_lint_attribution () =
  let k = Option.get (Kernels.Registry.find "stencil1d") in
  let checked = Kernels.Kernel.parse k in
  let report = Analysis.Lint.run ~uri:"k" checked in
  let fs =
    List.filter
      (fun (f : Analysis.Diag.finding) -> f.Analysis.Diag.rule = "fs/line-conflict")
      report.Analysis.Diag.findings
  in
  check Alcotest.bool "stencil1d has an FS finding" true (fs <> []);
  List.iter
    (fun (f : Analysis.Diag.finding) ->
      let n = List.length f.Analysis.Diag.attribution in
      check Alcotest.bool "attribution present, at most 3" true
        (n >= 1 && n <= 3);
      List.iter
        (fun s ->
          check Alcotest.bool "sentence mentions FS cases" true
            (contains_substring s "of FS cases"))
        f.Analysis.Diag.attribution)
    fs;
  (* the first (at most 3) lines of explain's reference-pair section *)
  let explain_top text =
    let rec section = function
      | "reference pairs (by share of all cases):" :: rest -> rest
      | _ :: rest -> section rest
      | [] -> []
    in
    let rec sentences n = function
      | l :: rest
        when n > 0
             && String.starts_with ~prefix:"  " l
             && not (String.starts_with ~prefix:"  ..." l) ->
          String.sub l 2 (String.length l - 2) :: sentences (n - 1) rest
      | _ -> []
    in
    sentences 3 (section (String.split_on_char '\n' text))
  in
  let opts = { Analysis.Lint.default_options with fixits = false } in
  let threads = opts.Analysis.Lint.threads in
  let compared =
    List.filter
      (fun (k : Kernels.Kernel.t) ->
        let checked = Kernels.Kernel.parse k in
        let func = k.Kernels.Kernel.func in
        let fs =
          List.filter
            (fun (f : Analysis.Diag.finding) ->
              f.Analysis.Diag.rule = "fs/line-conflict")
            (Analysis.Lint.run ~opts ~uri:"k" checked).Analysis.Diag.findings
        in
        let params = [ ("num_threads", threads) ] in
        let nest = Loopir.Lower.lower checked ~func ~params in
        let bases =
          List.sort_uniq compare
            (List.filter_map
               (fun (p : Analysis.Depend.pair) ->
                 if p.Analysis.Depend.verdict = Analysis.Depend.Line_conflict
                 then Some p.Analysis.Depend.a.Loopir.Array_ref.base
                 else None)
               (Analysis.Depend.pairs
                  ~line_bytes:
                    (Archspec.Arch.line_bytes opts.Analysis.Lint.arch)
                  ~params nest))
        in
        if fs = [] || List.length bases <> 1 then false
        else begin
          let cfg =
            Fsmodel.Model.default_config ~arch:opts.Analysis.Lint.arch ~threads
              ()
          in
          let a = Explain.analyze ~uri:"k" ~func cfg ~nest ~checked in
          let top = explain_top (Explain.to_text a) in
          List.iter
            (fun (f : Analysis.Diag.finding) ->
              check
                Alcotest.(list string)
                (k.Kernels.Kernel.name ^ ": lint top: = explain pairs")
                top f.Analysis.Diag.attribution)
            fs;
          true
        end)
      (Kernels.Registry.all () @ Kernels.Registry.micros ())
  in
  check
    Alcotest.(list string)
    "kernels compared"
    [
      "heat"; "linear_regression"; "saxpy"; "stencil1d"; "matvec";
      "transpose"; "counter_slots"; "bytes_adjacent"; "struct_xy"; "histogram";
    ]
    (List.map (fun (k : Kernels.Kernel.t) -> k.Kernels.Kernel.name) compared)

let () =
  Alcotest.run "explain"
    [
      ( "attribution",
        [
          Alcotest.test_case "conservation on registry kernels" `Quick
            test_conservation;
          Alcotest.test_case "fast/reference recorders agree" `Quick
            test_engines_agree;
          Alcotest.test_case "pairs-only recorder" `Quick
            test_pairs_only_recorder;
          Alcotest.test_case "trace ring bounded" `Quick test_ring_bounded;
          Alcotest.test_case "trace_event JSON valid" `Quick test_trace_json;
          Alcotest.test_case "renderers total" `Quick test_renderers_total;
          Alcotest.test_case "lint findings attributed" `Quick
            test_lint_attribution;
        ] );
    ]
