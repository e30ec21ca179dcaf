(* Benchmark runner: runs one workload for one seed and prints its
   result as one JSON line (perfbench/run.py builds this program, calls
   it and formats the final record).

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            --exe PATH/fsdetect.exe --expected perfbench/expected.txt
            [--spans FILE] *)

open Work
module J = Analysis.Json

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref false
let exe = ref ""
let expected = ref ""
let spans_out = ref ""

let () =
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := int_of_string v; go r
    | "--trace" :: v :: r -> trace := v = "1"; go r
    | "--exe" :: v :: r -> exe := v; go r
    | "--expected" :: v :: r -> expected := v; go r
    | "--spans" :: v :: r -> spans_out := v; go r
    | [] -> ()
    | a :: _ -> prerr_endline ("main.exe: unknown argument " ^ a); exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

(* Deterministic work per run: whole passes over the seeded deck, as many
   as the nominal pass cost fits into --seconds (one in a traced run). *)
let passes nominal =
  if !trace then 1 else max 1 (int_of_float (float_of_int !seconds /. nominal))

let ms x = 1000. *. x

(* ---------------------------------------------------------------- *)
(* Per-layer metrics of a traced run                                  *)
(* ---------------------------------------------------------------- *)

let layer_spans =
  [
    "minic.parse"; "minic.typecheck"; "loopir.lower"; "depend.pairs"; "depend.pairs_sym";
    "closed_form.estimate"; "closed_form.estimate_sym"; "engine.fast"; "engine.reference";
    "attrib.run"; "dist.run"; "advisor.advise"; "predict.predict"; "transform.materialize";
    "fixer.verify"; "reuse.analyze"; "overhead.analyze"; "execsim.measure"; "explain.analyze";
    "explain.render"; "diag.render"; "serve.decode";
  ]

let per_layer res =
  let self = Tr.self_times () in
  let s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let c = Tr.counter in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.iter (fun n -> metric res (n ^ "_s") "s" (s n)) layer_spans;
  let layers = Tr.layer_time_by_request () in
  let wall = List.fold_left (fun a (_, w) -> a +. w) 0. !Tr.exec_walls in
  let covered =
    List.fold_left
      (fun a (r, _) -> a +. Option.value ~default:0. (Hashtbl.find_opt layers r))
      0. !Tr.exec_walls
  in
  let exec_self =
    List.fold_left
      (fun a (r, w) -> a +. Float.max 0. (w -. Option.value ~default:0. (Hashtbl.find_opt layers r)))
      0. !Tr.exec_walls
  in
  metric res "service.exec_self_s" "s" exec_self;
  metric res "trace.gap_frac" "ratio" (ratio (Float.abs (wall -. covered)) wall);
  metric res "minic.bytes" "count" (c "minic.bytes");
  metric res "depend.pairs" "count" (c "depend.pairs");
  metric res "depend.exact_share" "ratio" (ratio (c "depend.exact") (c "depend.pairs"));
  metric res "closed_form.exact_ratio" "ratio"
    (ratio (c "closed_form.exact") (c "closed_form.attempts"));
  metric res "engine.runs" "count" (c "engine.runs");
  metric res "engine.iterations" "count" (c "engine.iterations");
  metric res "engine.iters_per_s" "1/s"
    (ratio (c "engine.iterations") (s "engine.fast" +. s "engine.reference" +. s "attrib.run"));
  metric res "fixer.verified_ratio" "ratio" (ratio (c "fixer.verified") (c "fixer.attempts"));
  metric res "execsim.accesses" "count" (c "execsim.accesses");
  metric res "cachesim.accesses_per_s" "1/s" (ratio (c "execsim.accesses") (s "execsim.measure"));
  metric res "cache.resp_hit_ratio" "ratio"
    (ratio (c "cache.resp_hits") (c "cache.resp_hits" +. c "cache.resp_misses"));
  metric res "cache.parse_hit_ratio" "ratio"
    (ratio (c "cache.parse_hits") (c "cache.parse_hits" +. c "cache.parse_misses"));
  let nspans = float_of_int (List.length !Tr.spans) in
  let overhead = nspans *. Tr.span_cost () in
  note res "trace_spans" (J.Int (int_of_float nspans));
  note res "trace_overhead_s" (J.Float overhead);
  note res "trace_overhead_frac" (J.Float (ratio overhead wall));
  note res "trace_gap_s" (J.Float (wall -. covered));
  note res "engine.runs_concrete_lints" (J.Float (c "engine.runs_concrete_lints"));
  if !spans_out <> "" then Tr.write_spans !spans_out

(* The counts that must repeat exactly for a seed. *)
let exact_counts res names =
  res.counts <- List.map (fun n -> (n, Tr.counter n)) names

(* ---------------------------------------------------------------- *)
(* Workloads                                                          *)
(* ---------------------------------------------------------------- *)

let tail_note res name (p, v) n =
  note res name (J.Float v);
  note res (name ^ ".percentile") (J.Int p);
  note res (name ^ ".samples") (J.Int n)

(* The end-to-end metrics.  Latencies are on the CPU clock of the
   process doing the analysis (see {!Work.sample}), except [wall_p50_ms],
   which is what the client waits for and so also shows a change in how
   many domains share the work.  Every time is scaled to the reference
   CPU speed by its sample's factor ({!Work.speed}); the record keeps
   the unscaled figures too.  Each deck entry's best over the passes,
   then the median and tail over the deck.  [passes] are the samples of
   each pass, in order; [latency] picks the samples the latency metrics
   describe (default: all); [setup] is already scaled. *)
let e2e_metrics res ~setup ~rss ?(latency = fun _ -> true) (passes : sample list list) =
  let scaled = List.map (List.map (fun s -> { s with wall = s.wall *. s.speed; cpu = s.cpu *. s.speed })) passes in
  let all = List.filter latency (List.concat scaled) in
  let e = per_entry_best cpu all in
  let sum f ps = List.fold_left (fun a s -> a +. f s) 0. ps in
  metric res "setup_s" "s" setup;
  metric res "cpu_p50_ms" "ms" (ms (median e));
  (* reported, not bounded: see perfbench/README.md *)
  tail_note res "cpu_tail_ms" (let p, v = tail e in (p, ms v)) (List.length e);
  metric res "wall_p50_ms" "ms" (ms (median (per_entry_best wall all)));
  metric res "requests_per_cpu_s" "1/s"
    (float_of_int (List.length (List.hd passes)) /. best (List.map (sum cpu) scaled));
  metric res "peak_rss_mb" "MB" rss;
  let raw = List.filter latency (List.concat passes) in
  let floats l = J.List (List.map (fun x -> J.Float x) l) in
  note res "speed" (J.Float (median (List.map (fun s -> s.speed) (List.concat passes))));
  note res "unscaled.cpu_p50_ms" (J.Float (ms (median (per_entry_best cpu raw))));
  note res "unscaled.wall_p50_ms" (J.Float (ms (median (per_entry_best wall raw))));
  note res "pass_cpu_s" (floats (List.map (sum cpu) passes));
  note res "pass_wall_s" (floats (List.map (sum wall) passes));
  note res "passes" (J.Int (List.length passes))

(* Wall-clock latency of the samples matching [keep], best per entry:
   the per-kind metrics, printed by name in the report. *)
let wall_notes res ?tail_name name scale keep samples =
  let w = per_entry_best wall (List.filter keep samples) in
  if w <> [] then begin
    note res name (J.Float (scale (median w)));
    Option.iter
      (fun t ->
        let p, v = tail w in
        tail_note res t (p, scale v) (List.length w))
      tail_name
  end

let cold res =
  let deck = Cold.deck ~seed:!seed in
  let setups = ref [] in
  let kind_of = Hashtbl.create 128 in
  List.iter (fun (e : entry) -> Hashtbl.replace kind_of e.key e.kind) deck;
  let first = Hashtbl.create 128 in
  let pass () =
    List.map
      (fun (e : entry) ->
        let speed = speed () in
        setups := (Cold.setup_sample () *. speed) :: !setups;
        let store = Service.Api.create_store () in
        let r0 = Fsmodel.Model.run_count () in
        let t, p = timed_self (fun () -> Service.Api.exec store e.req) in
        let runs = Fsmodel.Model.run_count () - r0 in
        (match Hashtbl.find_opt first e.key with
        | None ->
            Hashtbl.replace first e.key p;
            Tr.add "engine.runs" (float_of_int runs);
            List.iter
              (fun stage ->
                let h, m = Service.Api.stage_stats store stage in
                Tr.add ("cache." ^ stage ^ "_hits") (float_of_int h);
                Tr.add ("cache." ^ stage ^ "_misses") (float_of_int m))
              [ "resp"; "parse" ]
        | Some p0 ->
            attempt res (if p0 = p then Ok () else Refs.fail "%s: reply differs between passes" e.key));
        if !trace then begin
          let id = Tr.begin_request () in
          Tr.record_exec_wall id t.wall;
          Tr.enabled := true;
          (try e.replay () with _ -> ());
          Tr.enabled := false
        end;
        { t with key = e.key; speed })
      deck
  in
  let passes = List.init (passes 8.) (fun _ -> pass ()) in
  (* the requests' peak, before the reference checks allocate *)
  let rss = peak_rss_mb "self" in
  List.iter
    (fun (e : entry) ->
      let p = Hashtbl.find first e.key in
      attempt res
        (guard (fun () -> Refs.check_signature ~key:e.key ~kind:e.kind p >>> fun () -> e.check p)))
    deck;
  e2e_metrics res ~setup:(median !setups) ~rss passes;
  let all = List.concat passes in
  List.iter
    (fun k ->
      wall_notes res
        ?tail_name:(if k = "lint" then Some "lint_tail_s" else None)
        (k ^ "_p50_s") Fun.id
        (fun s -> Hashtbl.find kind_of s.key = k)
        all)
    [ "lint"; "fix"; "explain"; "analyze"; "sym_lint" ];
  if !trace then per_layer res;
  (* Model.run_count is bumped from both domains of an Advisor sweep or a
     Dist replay, so it can lose increments here: a note, not a count *)
  note res "engine.runs" (J.Float (Tr.counter "engine.runs"));
  exact_counts res
    ((if !trace then [ "engine.iterations"; "depend.pairs" ] else [])
    @ [ "cache.resp_hits"; "cache.resp_misses"; "cache.parse_hits"; "cache.parse_misses" ])

(* [n] passes of [f]; the counters keep the first pass's values, the
   ones that must repeat exactly. *)
let run_passes n f =
  let snap = ref None in
  let r =
    List.init n (fun _ ->
        let p = f () in
        if !snap = None then snap := Some (Hashtbl.copy Tr.counters);
        p)
  in
  Option.iter
    (fun s ->
      Hashtbl.reset Tr.counters;
      Hashtbl.iter (Hashtbl.replace Tr.counters) s)
    !snap;
  r

let edit res =
  let npasses = passes 5. in
  (* set-up samples: each pass's own launch plus extra launches after
     it, so that at least 31 samples span the run *)
  let extra = ref [] in
  let script = Edit.script ~seed:!seed in
  let first = ref true in
  let passes =
    run_passes npasses (fun () ->
        let p = Edit.run_pass ~exe:!exe ~script ~check:!first ~trace:!trace ~res in
        first := false;
        for _ = 1 to (30 + npasses) / npasses do
          let c, s = Client.start !exe in
          Client.stop c;
          extra := s :: !extra
        done;
        p)
  in
  (* every pass replays the same session: replies must be identical *)
  let p0 = List.hd passes in
  List.iter
    (fun (p : Edit.pass) ->
      attempt res (if p.Edit.replies = p0.Edit.replies then Ok () else Refs.fail "session replies differ between passes"))
    (List.tl passes);
  let setups = List.map (fun (p : Edit.pass) -> p.Edit.setup) passes @ !extra in
  note res "setup_wall_s" (J.Float (median (List.map (fun (s : Client.setup) -> s.wall) setups)));
  let setups = List.map (fun (s : Client.setup) -> s.cpu *. s.speed) setups in
  let misses = List.concat_map (fun (p : Edit.pass) -> p.Edit.misses) passes in
  let hits = List.concat_map (fun (p : Edit.pass) -> p.Edit.hits) passes in
  (* the bounded latencies are those of cache misses; hits count in the
     pass time and the request rate *)
  let is_miss s = not (String.contains s.key '#') in
  e2e_metrics res ~setup:(median setups) ~latency:is_miss
    ~rss:(median (List.map (fun (p : Edit.pass) -> p.Edit.rss) passes))
    (List.map (fun (p : Edit.pass) -> p.Edit.misses @ p.Edit.hits) passes);
  wall_notes res ~tail_name:"edit_tail_ms" "edit_p50_ms" ms (fun _ -> true) misses;
  wall_notes res "hit_p50_ms" ms (fun _ -> true) hits;
  if !trace then per_layer res;
  exact_counts res
    ((if !trace then [ "engine.runs"; "engine.iterations"; "depend.pairs"; "cache.resp_hits";
                        "cache.resp_misses"; "cache.parse_hits"; "cache.parse_misses" ] else [])
    @ [ "serve.cache_hits"; "serve.cache_misses"; "serve.cache_evictions" ])

let tables res =
  let runs =
    run_passes (passes 8.) (fun () ->
        let r0 = Fsmodel.Model.run_count () in
        let p = Tables.run_pass ~seed:!seed ~trace:!trace ~res in
        Tr.add "engine.runs" (float_of_int (Fsmodel.Model.run_count () - r0));
        p)
  in
  (* the calls' peak, before the reference checks allocate *)
  let rss = peak_rss_mb "self" in
  List.iter (fun (p : Tables.pass) -> List.iter (fun c -> attempt res (guard c)) p.Tables.refs) runs;
  let p0 = List.hd runs in
  let claims = Tables.claims p0.Tables.rows p0.Tables.points in
  e2e_metrics res
    ~setup:(median (List.concat_map (fun (p : Tables.pass) -> p.Tables.setups) runs))
    ~rss
    (List.map (fun (p : Tables.pass) -> p.Tables.call_times) runs);
  note res "tables_s" (J.Float (best (List.map (fun (p : Tables.pass) -> p.Tables.wall) runs)));
  note res "claims"
    (J.List
       (List.map
          (fun (id, ok, detail) -> J.Obj [ ("check", J.Str id); ("ok", J.Bool ok); ("detail", J.Str detail) ])
          claims));
  note res "claims_failed" (J.Int (List.length (List.filter (fun (_, ok, _) -> not ok) claims)));
  note res "claims_checked" (J.Int (List.length claims));
  if !trace then per_layer res;
  exact_counts res
    ((if !trace then [ "engine.iterations" ] else []) @ [ "engine.runs"; "execsim.accesses" ])

let () =
  let res = new_result () in
  if !expected <> "" && Sys.file_exists !expected then Refs.load !expected;
  (match !workload with
  | "cold_mixed" -> cold res
  | "edit_session" -> edit res
  | "paper_tables" -> tables res
  | w ->
      prerr_endline ("main.exe: unknown workload " ^ w);
      exit 2);
  (* a traced run reports the per-layer metrics; its end-to-end numbers
     go to the run record only *)
  let e2e =
    [ "setup_s"; "cpu_p50_ms"; "wall_p50_ms"; "requests_per_cpu_s"; "peak_rss_mb" ]
  in
  let shown, kept = List.partition (fun (n, _, _) -> not (!trace && List.mem n e2e)) res.metrics in
  if kept <> [] then note res "e2e" (J.Obj (List.map (fun (n, v, _) -> (n, J.Float v)) kept));
  let metrics =
    J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) shown)
  in
  let out =
    J.Obj
      [
        ("correct", J.Bool (res.failed = 0));
        ("attempted", J.Int res.attempted);
        ("failed", J.Int res.failed);
        ("metrics", metrics);
        ("counts", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) res.counts));
        ("notes", J.Obj res.notes);
        ("failures", J.List (List.map (fun s -> J.Str s) (List.rev res.failures)));
      ]
  in
  print_endline (Service.Jsonp.to_line out)
