(* Aggregation and rendering of FS-case provenance.  The recorder is
   filled by Fsmodel.Model.run; everything here is post-processing, so
   clarity wins over allocation discipline. *)

type t = {
  uri : string;
  func : string;
  threads : int;
  chunk : int option;
  engine : Fsmodel.Model.engine;
  sched : (string * int) option;
      (* (replayed schedule kind, seed count) when nondeterministic *)
  engine_fs : int;
  total : int;
  refs : Loopir.Array_ref.t array;
  pairs : Fsmodel.Attrib.ref_pair list;
  arrays : (string * string * int) list;
  lines : (int * int) list;
  line_bytes : int;
  layout : Loopir.Layout.t;
  recorder : Fsmodel.Attrib.t;
  verdicts : string list;
  cost : string list;
}

let sum_desc tbl =
  (* Hashtbl of key -> count, descending count then ascending key *)
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun (k1, c1) (k2, c2) ->
         let c = compare c2 c1 in
         if c <> 0 then c else compare k1 k2)

let aggregate ~uri ~func ~threads ~chunk ~engine ~sched ~engine_fs ~refs
    ~line_bytes ~layout recorder =
  let total = Fsmodel.Attrib.total recorder in
  if total <> engine_fs then
    failwith
      (Printf.sprintf
         "Explain.analyze: conservation broken — engine counts %d, recorder \
          holds %d"
         engine_fs total);
  let pairs = Fsmodel.Attrib.ref_pairs recorder in
  let atbl : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p : Fsmodel.Attrib.ref_pair) ->
      let base i = refs.(i).Loopir.Array_ref.base in
      let wbase = if p.rp_writer < 0 then "?" else base p.rp_writer in
      let akey = (wbase, base p.rp_victim) in
      Hashtbl.replace atbl akey
        (p.rp_count + Option.value ~default:0 (Hashtbl.find_opt atbl akey)))
    pairs;
  let arrays = List.map (fun ((w, v), c) -> (w, v, c)) (sum_desc atbl) in
  let lines =
    Fsmodel.Attrib.fold_lines recorder ~init:[] ~f:(fun acc ~line ~count ->
        (line, count) :: acc)
    |> List.sort (fun (l1, c1) (l2, c2) ->
           let c = compare c2 c1 in
           if c <> 0 then c else compare l1 l2)
  in
  {
    uri;
    func;
    threads;
    chunk;
    engine;
    sched;
    engine_fs;
    total;
    refs;
    pairs;
    arrays;
    lines;
    line_bytes;
    layout;
    recorder;
    verdicts = [];
    cost = [];
  }

let analyze ?(engine = (`Fast : Fsmodel.Model.engine)) ?trace_cap ?sched ~uri
    ~func (cfg : Fsmodel.Model.config) ~nest ~checked =
  let refs = Array.of_list (nest : Loopir.Loop_nest.t).Loopir.Loop_nest.refs in
  let recorder =
    Fsmodel.Attrib.create ?trace_cap ~line_views:true
      ~threads:cfg.Fsmodel.Model.threads ~nrefs:(Array.length refs) ()
  in
  (* under a nondeterministic schedule every seed replays into the same
     recorder, so the aggregates are the union over the seed set and
     conservation holds against the summed engine count *)
  let engine_fs, sched =
    match sched with
    | None ->
        let r = Fsmodel.Model.run ~engine ~attrib:recorder cfg ~nest ~checked in
        (r.Fsmodel.Model.fs_cases, None)
    | Some (kind, seeds) ->
        let sum =
          Array.fold_left
            (fun acc seed ->
              let r =
                Fsmodel.Model.run ~engine ~attrib:recorder
                  { cfg with Fsmodel.Model.sched = Some (kind, seed) }
                  ~nest ~checked
              in
              acc + r.Fsmodel.Model.fs_cases)
            0 seeds
        in
        (sum, Some (Ompsched.Dispatch.kind_name kind, Array.length seeds))
  in
  let line_bytes = Archspec.Arch.line_bytes cfg.Fsmodel.Model.arch in
  let layout = Loopir.Layout.make ~line_bytes checked in
  let verdicts =
    try
      List.map
        (fun (p : Analysis.Depend.pair) ->
          Printf.sprintf "%s vs %s: %s [%s%s]%s"
            p.Analysis.Depend.a.Loopir.Array_ref.repr
            p.Analysis.Depend.b.Loopir.Array_ref.repr
            (Analysis.Depend.verdict_name p.Analysis.Depend.verdict)
            (Analysis.Depend.backend_name
               p.Analysis.Depend.ev.Analysis.Depend.ev_backend)
            (if p.Analysis.Depend.ev.Analysis.Depend.ev_must then ", must"
             else "")
            (match p.Analysis.Depend.ev.Analysis.Depend.ev_witness with
            | Some w ->
                ", witness " ^ Analysis.Depend.witness_to_string w
            | None -> ""))
        (Analysis.Depend.pairs ~line_bytes ~params:cfg.Fsmodel.Model.params
           nest)
    with _ -> []
  in
  let cost =
    (* the reuse model is static-schedule semantics; no Eq. 1 view for a
       replayed nondeterministic schedule *)
    if sched <> None then []
    else
      try
        let a =
          Analysis.Reuse.analyze ~arch:cfg.Fsmodel.Model.arch
            ?chunk:cfg.Fsmodel.Model.chunk ~threads:cfg.Fsmodel.Model.threads
            ~params:cfg.Fsmodel.Model.params ~checked nest
        in
      let p = a.Analysis.Reuse.prediction in
      [
        Format.asprintf "%a" Costmodel.Total_cost.pp_eq1
          a.Analysis.Reuse.eq1;
        Printf.sprintf
          "FS share %.1f%% of predicted total; miss rate %.2f%%, %.0f \
           memory fetches"
          (Costmodel.Total_cost.fs_percent ~fs:a.Analysis.Reuse.breakdown)
          (100. *. p.Analysis.Reuse.miss_rate)
          p.Analysis.Reuse.mem_fetches;
      ]
    with _ -> []
  in
  {
    (aggregate ~uri ~func ~threads:cfg.Fsmodel.Model.threads
       ~chunk:cfg.Fsmodel.Model.chunk ~engine ~sched ~engine_fs ~refs
       ~line_bytes ~layout recorder)
    with
    verdicts;
    cost;
  }

let conservation_ok t =
  t.total = t.engine_fs
  && Fsmodel.Attrib.fold_pairs t.recorder ~init:0
       ~f:(fun a ~writer_ref:_ ~victim_ref:_ ~writer_tid:_ ~victim_tid:_
               ~count -> a + count)
     = t.total
  && Fsmodel.Attrib.fold_lines t.recorder ~init:0
       ~f:(fun a ~line:_ ~count -> a + count)
     = t.total
  && Fsmodel.Attrib.fold_cells t.recorder ~init:0
       ~f:(fun a ~line:_ ~tid:_ ~count -> a + count)
     = t.total
  && List.fold_left
       (fun a (p : Fsmodel.Attrib.ref_pair) -> a + p.rp_count)
       0 t.pairs
     = t.total
  && List.fold_left (fun a (_, _, c) -> a + c) 0 t.arrays = t.total
  && List.fold_left (fun a (_, c) -> a + c) 0 t.lines = t.total

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)
(* ------------------------------------------------------------------ *)

let pct t n =
  if t.total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int t.total

let chunk_str = function
  | Some c -> string_of_int c
  | None -> "pragma"

let engine_name = function `Fast -> "fast" | `Reference -> "reference"

(* the array a byte address falls in, if any *)
let array_at t addr =
  List.find_map
    (fun (name, base, size) ->
      if addr >= base && addr < base + size then Some (name, addr - base)
      else None)
    (Loopir.Layout.globals t.layout)

let line_label t line =
  let addr = line * t.line_bytes in
  match array_at t addr with
  | Some (name, off) -> Printf.sprintf "%d (%s +%d)" line name off
  | None -> string_of_int line

let pair_sentence t p = Fsmodel.Attrib.sentence ~refs:t.refs ~total:t.total p

(* ------------------------------------------------------------------ *)
(* Text renderer (annotated source)                                    *)
(* ------------------------------------------------------------------ *)

let header t =
  match t.sched with
  | Some (name, seeds) ->
      Printf.sprintf
        "%s: %d false-sharing case(s) in %s at %d thread(s), schedule(%s) \
         over %d seed(s) (%s engine)\n"
        t.uri t.engine_fs t.func t.threads name seeds (engine_name t.engine)
  | None ->
      Printf.sprintf
        "%s: %d false-sharing case(s) in %s at %d thread(s), chunk %s (%s \
         engine)\n"
        t.uri t.engine_fs t.func t.threads (chunk_str t.chunk)
        (engine_name t.engine)

let take n l = List.filteri (fun i _ -> i < n) l

let to_text ?source ?(top = 3) t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (header t);
  if t.verdicts <> [] then begin
    Buffer.add_string buf "\ndependence verdicts:\n";
    List.iter
      (fun v -> Buffer.add_string buf ("  " ^ v ^ "\n"))
      t.verdicts
  end;
  if t.cost <> [] then begin
    Buffer.add_string buf "\nanalytic cost (Eq. 1):\n";
    List.iter
      (fun v -> Buffer.add_string buf ("  " ^ v ^ "\n"))
      t.cost
  end;
  if t.total = 0 then
    Buffer.add_string buf
      "no false sharing recorded: every access stays on thread-private \
       cache lines under this schedule.\n"
  else begin
    let top_pairs = take top t.pairs in
    Buffer.add_string buf "\nreference pairs (by share of all cases):\n";
    List.iter
      (fun p -> Buffer.add_string buf ("  " ^ pair_sentence t p ^ "\n"))
      top_pairs;
    (match List.length t.pairs - List.length top_pairs with
    | 0 -> ()
    | n ->
        Buffer.add_string buf
          (Printf.sprintf "  ... and %d more pair(s)\n" n));
    Buffer.add_string buf "\nby array (writer -> victim):\n";
    List.iter
      (fun (w, v, c) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %6.1f%%  %d case(s)\n"
             (Printf.sprintf "%s -> %s" w v)
             (pct t c) c))
      t.arrays;
    Buffer.add_string buf "\nhottest cache lines:\n";
    List.iter
      (fun (l, c) ->
        Buffer.add_string buf
          (Printf.sprintf "  line %-18s %6.1f%%  %d case(s)\n"
             (line_label t l) (pct t c) c))
      (take 5 t.lines);
    (match List.length t.lines with
    | n when n > 5 ->
        Buffer.add_string buf
          (Printf.sprintf "  ... and %d more line(s)\n" (n - 5))
    | _ -> ());
    (* annotated source: one attribution line under each victim span *)
    match source with
    | None -> ()
    | Some src ->
        let by_line : (int, (int * string) list) Hashtbl.t =
          Hashtbl.create 8
        in
        List.iter
          (fun p ->
            let s =
              t.refs.(p.Fsmodel.Attrib.rp_victim).Loopir.Array_ref.span
            in
            if not (Minic.Span.is_none s) then
              Hashtbl.replace by_line s.Minic.Span.line
                ((s.Minic.Span.col, pair_sentence t p)
                :: Option.value ~default:[]
                     (Hashtbl.find_opt by_line s.Minic.Span.line)))
          top_pairs;
        if Hashtbl.length by_line > 0 then begin
          Buffer.add_string buf "\nannotated source:\n";
          let lines = String.split_on_char '\n' src in
          List.iteri
            (fun i line ->
              let lno = i + 1 in
              Buffer.add_string buf (Printf.sprintf "%5d | %s\n" lno line);
              match Hashtbl.find_opt by_line lno with
              | None -> ()
              | Some anns ->
                  List.iter
                    (fun (col, msg) ->
                      Buffer.add_string buf
                        (Printf.sprintf "      | %s^ %s\n"
                           (String.make (max 0 (col - 1)) ' ')
                           msg))
                    (List.sort compare anns))
            lines
        end
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Heatmap renderer                                                    *)
(* ------------------------------------------------------------------ *)

let density_chars = " .:-=+*#%@"

let heatmap ?(rows = 24) ?(cols = 16) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header t);
  if t.total = 0 then (
    Buffer.add_string buf "no false sharing recorded: nothing to map.\n";
    Buffer.contents buf)
  else begin
    let lo = List.fold_left (fun a (l, _) -> min a l) max_int t.lines in
    let hi = List.fold_left (fun a (l, _) -> max a l) min_int t.lines in
    let span = hi - lo + 1 in
    let nrows = max 1 (min rows span) in
    let per_row = (span + nrows - 1) / nrows in
    let shown_threads = min cols t.threads in
    let grid = Array.make_matrix nrows shown_threads 0 in
    let overflow = ref 0 in
    Fsmodel.Attrib.fold_cells t.recorder ~init:() ~f:(fun () ~line ~tid ~count ->
        let r = (line - lo) / per_row in
        if tid < shown_threads then grid.(r).(tid) <- grid.(r).(tid) + count
        else overflow := !overflow + count);
    let maxcell =
      Array.fold_left
        (fun a row -> Array.fold_left max a row)
        1 grid
    in
    Buffer.add_string buf
      (Printf.sprintf
         "\ncache line x victim thread (%d B lines, %d line(s) per row, max \
          cell = %d case(s))\n"
         t.line_bytes per_row maxcell);
    Buffer.add_string buf "  lines              arrays        ";
    for tid = 0 to shown_threads - 1 do
      Buffer.add_string buf (Printf.sprintf "%d" (tid mod 10))
    done;
    Buffer.add_char buf '\n';
    for r = 0 to nrows - 1 do
      let first = lo + (r * per_row) in
      let last = min hi (first + per_row - 1) in
      (* arrays whose bytes overlap this row's line range *)
      let labels =
        List.filter_map
          (fun (name, base, size) ->
            let b0 = first * t.line_bytes
            and b1 = ((last + 1) * t.line_bytes) - 1 in
            if base <= b1 && base + size - 1 >= b0 then Some name else None)
          (Loopir.Layout.globals t.layout)
      in
      let label =
        match labels with [] -> "-" | l -> String.concat "," l
      in
      let range =
        if first = last then string_of_int first
        else Printf.sprintf "%d..%d" first last
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %-13s " range
           (if String.length label > 13 then String.sub label 0 13 else label));
      for tid = 0 to shown_threads - 1 do
        let c = grid.(r).(tid) in
        let ch =
          if c = 0 then ' '
          else
            let n = String.length density_chars in
            let i = 1 + (c * (n - 2) / maxcell) in
            density_chars.[min (n - 1) i]
        in
        Buffer.add_char buf ch
      done;
      Buffer.add_char buf '\n'
    done;
    if t.threads > shown_threads then
      Buffer.add_string buf
        (Printf.sprintf
           "  (%d case(s) on threads T%d..T%d not shown; raise --cols)\n"
           !overflow shown_threads (t.threads - 1));
    Buffer.add_string buf
      (Printf.sprintf "  scale: '%s' (blank = 0)\n"
         (String.sub density_chars 1 (String.length density_chars - 1)));
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let trace_json t =
  let open Analysis.Json in
  let rec_ = t.recorder in
  let repr_of i = if i < 0 then "?" else t.refs.(i).Loopir.Array_ref.repr in
  let meta =
    Obj
      [
        ("name", Str "process_name");
        ("ph", Str "M");
        ("pid", Int 0);
        ("args", Obj [ ("name", Str ("fsdetect model: " ^ t.uri)) ]);
      ]
    :: List.init t.threads (fun tid ->
           Obj
             [
               ("name", Str "thread_name");
               ("ph", Str "M");
               ("pid", Int 0);
               ("tid", Int tid);
               ("args", Obj [ ("name", Str (Printf.sprintf "T%d" tid)) ]);
             ])
  in
  let events =
    List.init (Fsmodel.Attrib.trace_len rec_) (fun i ->
        let wref = Fsmodel.Attrib.trace_writer_ref rec_ i in
        let vref = Fsmodel.Attrib.trace_victim_ref rec_ i in
        Obj
          [
            ( "name",
              Str (Printf.sprintf "FS %s -> %s" (repr_of wref) (repr_of vref))
            );
            ("ph", Str "i");
            ("s", Str "t");
            ("ts", Int (Fsmodel.Attrib.trace_step rec_ i));
            ("pid", Int 0);
            ("tid", Int (Fsmodel.Attrib.trace_victim_tid rec_ i));
            ( "args",
              Obj
                [
                  ("line", Int (Fsmodel.Attrib.trace_line rec_ i));
                  ("writerThread", Int (Fsmodel.Attrib.trace_writer_tid rec_ i));
                  ("writerRef", Str (repr_of wref));
                  ("victimRef", Str (repr_of vref));
                ] );
          ])
  in
  Obj
    [
      ("displayTimeUnit", Str "ns");
      ( "otherData",
        Obj
          [
            ("tool", Str "fsdetect explain");
            ("uri", Str t.uri);
            ("func", Str t.func);
            ("threads", Int t.threads);
            ("engineFs", Int t.engine_fs);
            ("recordedEvents", Int (Fsmodel.Attrib.trace_len rec_));
            ("droppedEvents", Int (Fsmodel.Attrib.trace_dropped rec_));
          ] );
      ("traceEvents", List (meta @ events));
    ]
