type stack_policy = Level_l1 | Level_l2 | Lines of int | Unbounded

type config = {
  arch : Archspec.Arch.t;
  threads : int;
  chunk : int option;
  params : (string * int) list;
  stack : stack_policy;
  invalidate_on_write : bool;
  sched : (Ompsched.Dispatch.kind * int) option;
}

let default_config ?(arch = Archspec.Arch.paper_machine) ~threads () =
  {
    arch;
    threads;
    chunk = None;
    params = [ ("num_threads", threads) ];
    stack = Level_l1;
    invalidate_on_write = false;
    sched = None;
  }

type run_sample = { chunk_run : int; cumulative_fs : int }

type result = {
  fs_cases : int;
  thread_steps : int;
  iterations_evaluated : int;
  chunk_runs : int;
  samples : run_sample list;
  truncated : bool;
  steals : int;
}

type engine = [ `Fast | `Reference ]

exception Stop

type state = {
  mutable fs : int;
  mutable steps : int;
  mutable iters : int;
  mutable runs : int;
  mutable samples : run_sample list;
  mutable truncated : bool;
  mutable plan_steals : int;
}

let capacity_of cfg =
  match cfg.stack with
  | Level_l1 -> Archspec.Cache_geom.lines cfg.arch.Archspec.Arch.l1
  | Level_l2 -> Archspec.Cache_geom.lines cfg.arch.Archspec.Arch.l2
  | Lines n -> n
  | Unbounded -> max_int

(* The parallel loop's deal for one region: the static round-robin
   schedule (the paper's §III path) or a seed-replayed dispatch plan. *)
type deal = Static of Ompsched.Schedule.t | Plan of Ompsched.Dispatch.plan

(* the iteration a thread executes at its own position [k], or -1 *)
let next_iter deal ~tid k =
  match deal with
  | Static s -> Ompsched.Schedule.nth_iter_int s ~tid k
  | Plan p -> Ompsched.Dispatch.nth_iter_int p ~tid k

(* Geometry of one parallel region, evaluated with the current outer-index
   values (and the parallel variable pinned at its lower bound). *)
type region = {
  par_lower : int;
  par_step : int;
  inner : Loopir.Loop_nest.loop array;
  inner_lowers : int array;
  inner_trips : int array;
  inner_per_par : int;
  deal : deal;
  max_steps : int;  (* lockstep steps: the deal's depth x inner iterations *)
  run_span : int;  (* lockstep steps per chunk run *)
}

(* Which dispatcher drives the parallel loop: an explicit config override
   wins; otherwise a dynamic/guided pragma is replayed at seed 0, and
   static keeps the closed-form round-robin deal (the paper's §III path). *)
let dispatch cfg (nest : Loopir.Loop_nest.t) =
  match cfg.sched with
  | Some _ as s -> s
  | None -> (
      let granule () =
        match cfg.chunk with
        | Some c -> c
        | None -> Option.value ~default:1 (Loopir.Loop_nest.chunk_spec nest)
      in
      match Loopir.Loop_nest.schedule_kind nest with
      | `Static -> None
      | `Dynamic -> Some (Ompsched.Dispatch.Dynamic { chunk = granule () }, 0)
      | `Guided ->
          Some (Ompsched.Dispatch.Guided { min_chunk = granule () }, 0))

(* bumped from every domain of a Par_sweep *)
let runs = Atomic.make 0
let run_count () = Atomic.get runs

let run ?max_chunk_runs ?(record_samples = false) ?(engine = (`Fast : engine))
    ?attrib cfg ~(nest : Loopir.Loop_nest.t) ~checked =
  if cfg.threads < 1 then invalid_arg "Model.run: threads < 1";
  Atomic.incr runs;
  let arch = cfg.arch in
  let line_bytes = Archspec.Arch.line_bytes arch in
  let layout = Loopir.Layout.make ~line_bytes checked in
  let loops = Array.of_list nest.Loopir.Loop_nest.loops in
  let nloops = Array.length loops in
  let d = nest.Loopir.Loop_nest.parallel_depth in
  let var_slots =
    List.map (fun (l : Loopir.Loop_nest.loop) -> l.Loopir.Loop_nest.var)
      nest.Loopir.Loop_nest.loops
  in
  let own =
    Ownership.compile ~layout ~line_bytes ~params:cfg.params ~var_slots nest
  in
  let chunk_spec =
    match cfg.chunk with
    | Some c -> Some c
    | None -> Loopir.Loop_nest.chunk_spec nest
  in
  let dispatch = dispatch cfg nest in
  let idx = Array.make nloops 0 in
  (* variable lookup, precompiled: each name resolves once to either a
     parameter value or a loop slot read from [idx], instead of walking
     the params assoc list on every bound evaluation *)
  let env : (string, [ `Param of int | `Slot of int ]) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun i (l : Loopir.Loop_nest.loop) ->
      Hashtbl.replace env l.Loopir.Loop_nest.var (`Slot i))
    loops;
  (* params shadow loop variables, first binding winning (assoc order) *)
  List.iter (fun (v, k) -> Hashtbl.replace env v (`Param k))
    (List.rev cfg.params);
  let lookup v =
    match Hashtbl.find_opt env v with
    | Some (`Param k) -> Some k
    | Some (`Slot i) -> Some idx.(i)
    | None -> None
  in
  let st =
    {
      fs = 0;
      steps = 0;
      iters = 0;
      runs = 0;
      samples = [];
      truncated = false;
      plan_steals = 0;
    }
  in
  let run_limit = Option.value ~default:max_int max_chunk_runs in
  let complete_chunk_run () =
    st.runs <- st.runs + 1;
    if record_samples then
      st.samples <- { chunk_run = st.runs; cumulative_fs = st.fs } :: st.samples;
    if st.runs >= run_limit then begin
      st.truncated <- true;
      raise Stop
    end
  in
  (* Region geometry for the outer-variable values currently in [idx];
     [None] when the region executes no iterations.  The parallel loop's
     deal is picked here, once per region, and a replayed plan's steals
     are counted as it is drawn. *)
  let region_geometry () =
    let ploop = loops.(d) in
    let par_lower = Loopir.Expr_eval.eval lookup ploop.Loopir.Loop_nest.lower in
    let par_trip = Loopir.Loop_nest.trip_count ploop ~env:lookup in
    if par_trip <= 0 then None
    else begin
      (* inner loop geometry, parallel variable pinned at its lower bound *)
      idx.(d) <- par_lower;
      let inner = Array.sub loops (d + 1) (nloops - d - 1) in
      let inner_lowers =
        Array.map
          (fun (l : Loopir.Loop_nest.loop) ->
            Loopir.Expr_eval.eval lookup l.Loopir.Loop_nest.lower)
          inner
      in
      let inner_trips =
        Array.map
          (fun (l : Loopir.Loop_nest.loop) ->
            Loopir.Loop_nest.trip_count l ~env:lookup)
          inner
      in
      let inner_per_par = Array.fold_left ( * ) 1 inner_trips in
      if inner_per_par <= 0 then None
      else begin
        let deal, depth, window =
          match dispatch with
          | None ->
              let chunk =
                match chunk_spec with
                | Some c -> c
                | None ->
                    (* schedule(static) without a chunk: contiguous blocks *)
                    Ompsched.Schedule.block_chunk ~threads:cfg.threads
                      ~total:par_trip
              in
              let s =
                Ompsched.Schedule.make ~threads:cfg.threads ~chunk
                  ~total:par_trip
              in
              (Static s, Ompsched.Schedule.max_steps_per_thread s, chunk)
          | Some (kind, seed) ->
              let p =
                Ompsched.Dispatch.plan ~threads:cfg.threads ~total:par_trip
                  ~seed kind
              in
              st.plan_steals <- st.plan_steals + Ompsched.Dispatch.steals p;
              ( Plan p,
                Ompsched.Dispatch.max_steps_per_thread p,
                Ompsched.Dispatch.window p )
        in
        Some
          {
            par_lower;
            par_step = ploop.Loopir.Loop_nest.step;
            inner;
            inner_lowers;
            inner_trips;
            inner_per_par;
            deal;
            max_steps = depth * inner_per_par;
            run_span = window * inner_per_par;
          }
      end
    end
  in
  (* Fast engine: incremental odometer over the inner loops (no div/mod on
     the step counter), ownership lists strength-reduced through a cursor
     into a reused buffer, FS counting through the bitmask counter.  With
     an attribution sink, each entry goes through
     [Fs_counter.process_attr] instead, so every case lands in the
     recorder. *)
  let eval_region_fast counter cur buf =
    match region_geometry () with
    | None -> ()
    | Some r ->
        let n_inner = Array.length r.inner in
        for l = 0 to d - 1 do
          Ownership.cursor_set cur l idx.(l)
        done;
        let pos = Array.make (max 1 n_inner) 0 in
        for j = 0 to n_inner - 1 do
          Ownership.cursor_set cur (d + 1 + j) r.inner_lowers.(j)
        done;
        let k_par = ref 0 in
        (* advance the inner odometer (innermost varies fastest); a full
           wrap moves every thread to its next parallel iteration *)
        let rec bump j =
          if j < 0 then incr k_par
          else begin
            let p = pos.(j) + 1 in
            if p = r.inner_trips.(j) then begin
              pos.(j) <- 0;
              Ownership.cursor_set cur (d + 1 + j) r.inner_lowers.(j);
              bump (j - 1)
            end
            else begin
              pos.(j) <- p;
              Ownership.cursor_set cur (d + 1 + j)
                (r.inner_lowers.(j) + (p * r.inner.(j).Loopir.Loop_nest.step))
            end
          end
        in
        for s = 0 to r.max_steps - 1 do
          for t = 0 to cfg.threads - 1 do
            let q = next_iter r.deal ~tid:t !k_par in
            if q >= 0 then begin
              Ownership.cursor_set cur d (r.par_lower + (q * r.par_step));
              Ownership.fill cur buf;
              for i = 0 to Ownership.buf_len buf - 1 do
                let line = Ownership.buf_line buf i in
                let written = Ownership.buf_written buf i in
                let fs =
                  match attrib with
                  | None -> Fs_counter.process counter ~me:t ~line ~written
                  | Some sink ->
                      Fs_counter.process_attr counter ~me:t ~line ~written
                        ~ref_id:(Ownership.buf_ref buf i) ~step:st.steps sink
                in
                if cfg.invalidate_on_write && written then
                  Fs_counter.invalidate_others counter ~me:t ~line;
                st.fs <- st.fs + fs
              done;
              st.iters <- st.iters + 1
            end
          done;
          st.steps <- st.steps + 1;
          if (s + 1) mod r.run_span = 0 then complete_chunk_run ();
          bump (n_inner - 1)
        done;
        (* a trailing partial chunk run still counts as a run *)
        if r.max_steps mod r.run_span <> 0 then complete_chunk_run ()
  in
  (* Reference engine: the direct transcription of the paper's procedure —
     per-step div/mod index decomposition, freshly built ownership lists,
     and the 1-to-All φ comparison as a scan over all other thread states.
     Kept as the oracle the fast engine is property-checked against.  With
     an attribution sink, writer provenance is carried in one [Hashtbl]
     per thread (line -> last writing reference), and events are recorded
     in the same order as the fast path, so the two recorders end up
     identical. *)
  let eval_region_ref states wtbl =
    (* one insertion of [line] into thread [me]'s state, attributed to
       reference [rid] *)
    let insert ~me ~line ~written ~rid =
      (match attrib with
      | None -> ()
      | Some sink ->
          Array.iteri
            (fun j sj ->
              if j <> me && Thread_cache_state.holds_modified sj line then
                Attrib.record sink ~step:st.steps ~line ~writer_tid:j
                  ~writer_ref:
                    (Option.value ~default:(-1)
                       (Hashtbl.find_opt wtbl.(j) line))
                  ~victim_tid:me ~victim_ref:rid)
            states;
          if written then Hashtbl.replace wtbl.(me) line rid);
      let fs = Detect.fs_cases_for_insert ~states ~me ~line in
      ignore (Thread_cache_state.insert states.(me) ~line ~written);
      if cfg.invalidate_on_write && written then
        Array.iteri
          (fun j s ->
            if j <> me then ignore (Thread_cache_state.invalidate s line))
          states;
      st.fs <- st.fs + fs
    in
    match region_geometry () with
    | None -> ()
    | Some r ->
        for s = 0 to r.max_steps - 1 do
          let k_par = s / r.inner_per_par in
          let k_in = s mod r.inner_per_par in
          for t = 0 to cfg.threads - 1 do
            let q = next_iter r.deal ~tid:t k_par in
            if q >= 0 then begin
              idx.(d) <- r.par_lower + (q * r.par_step);
              (* mixed-radix decomposition of the inner iteration *)
              let rem = ref k_in in
              for j = Array.length r.inner - 1 downto 0 do
                let trip = r.inner_trips.(j) in
                let v = !rem mod trip in
                rem := !rem / trip;
                idx.(d + 1 + j) <-
                  r.inner_lowers.(j) + (v * r.inner.(j).Loopir.Loop_nest.step)
              done;
              (match attrib with
              | None ->
                  List.iter
                    (fun { Ownership.line; written } ->
                      insert ~me:t ~line ~written ~rid:(-1))
                    (Ownership.lines own idx)
              | Some _ ->
                  List.iter
                    (fun { Ownership.a_line; a_written; a_ref } ->
                      insert ~me:t ~line:a_line ~written:a_written ~rid:a_ref)
                    (Ownership.lines_with_refs own idx));
              st.iters <- st.iters + 1
            end
          done;
          st.steps <- st.steps + 1;
          if (s + 1) mod r.run_span = 0 then complete_chunk_run ()
        done;
        (* a trailing partial chunk run still counts as a run *)
        if r.max_steps mod r.run_span <> 0 then complete_chunk_run ()
  in
  (* enumerate the sequential outer loops *)
  let rec outer body level =
    if level = d then body ()
    else begin
      let loop = loops.(level) in
      let lo = Loopir.Expr_eval.eval lookup loop.Loopir.Loop_nest.lower in
      let hi = Loopir.Expr_eval.eval lookup loop.Loopir.Loop_nest.upper_excl in
      let v = ref lo in
      while !v < hi do
        idx.(level) <- !v;
        outer body (level + 1);
        v := !v + loop.Loopir.Loop_nest.step
      done
    end
  in
  (try
     match engine with
     | `Fast ->
         let counter =
           Fs_counter.create ~threads:cfg.threads ~capacity:(capacity_of cfg)
         in
         let cur = Ownership.cursor own in
         let buf = Ownership.buffer () in
         outer (fun () -> eval_region_fast counter cur buf) 0
     | `Reference ->
         let states =
           Array.init cfg.threads (fun _ ->
               Thread_cache_state.create ~capacity:(capacity_of cfg))
         in
         let wtbl =
           if Option.is_none attrib then [||]
           else Array.init cfg.threads (fun _ -> Hashtbl.create 64)
         in
         outer (fun () -> eval_region_ref states wtbl) 0
   with Stop -> ());
  {
    fs_cases = st.fs;
    thread_steps = st.steps;
    iterations_evaluated = st.iters;
    chunk_runs = st.runs;
    samples = List.rev st.samples;
    truncated = st.truncated;
    steals = st.plan_steals;
  }
