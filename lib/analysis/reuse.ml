type level = L1 | L2 | L3 | Mem

let level_name = function L1 -> "L1" | L2 -> "L2" | L3 -> "L3" | Mem -> "mem"

type bin = {
  label : string;
  distance : int option;
  count : float;
  level : level;
}

type co_service = Co_l3 | Co_c2c | Co_mem

type group_profile = {
  leader_repr : string;
  members : int;
  has_write : bool;
  sigma : int;
  co : co_service;
  bins : bin list;
}

type prediction = {
  threads : int;
  accesses : float;
  l1_hits : float;
  l2_hits : float;
  l3_hits : float;
  c2c_transfers : float;
  mem_fetches : float;
  miss_rate : float;
  cache_cycles : float;
  groups : group_profile list;
}

let round_up x a = (x + a - 1) / a * a

let predict ?(arch = Archspec.Arch.paper_machine) ?chunk ~threads ~env
    (nest : Loopir.Loop_nest.t) =
  let line = Archspec.Arch.line_bytes arch in
  let trips = Costmodel.Cache_model.trips_of_nest ~env nest in
  let loops = nest.Loopir.Loop_nest.loops in
  let loop_vars =
    List.map (fun (l : Loopir.Loop_nest.loop) -> l.Loopir.Loop_nest.var) loops
  in
  let nvars = List.length loop_vars in
  let d = nest.Loopir.Loop_nest.parallel_depth in
  let trip_at i = snd (List.nth trips i) in
  let step_at i = (List.nth loops i).Loopir.Loop_nest.step in
  let var_at i = List.nth loop_vars i in
  let prod lo hi =
    let rec go i acc = if i > hi then acc else go (i + 1) (acc * trip_at i) in
    go lo 1
  in
  let regions = prod 0 (d - 1) in
  let parallel_trip = trip_at d in
  let inner_per_parallel = prod (d + 1) (nvars - 1) in
  let chunk =
    match chunk with
    | Some c -> c
    | None -> (
        match Loopir.Loop_nest.chunk_spec nest with
        | Some c -> c
        | None -> Ompsched.Schedule.block_chunk ~threads ~total:parallel_trip)
  in
  let sched = Ompsched.Schedule.make ~threads ~chunk ~total:parallel_trip in
  let max_steps = Ompsched.Schedule.max_steps_per_thread sched in
  let cpt = Ompsched.Schedule.chunks_per_thread sched in
  let groups =
    Loopir.Ref_group.form ~line_bytes:line nest.Loopir.Loop_nest.refs
  in
  let ngroups = List.length groups in
  let w_l1 = Archspec.Arch.capacity_lines arch `L1 in
  let w_l2 = Archspec.Arch.capacity_lines arch `L2 in
  let w_l3 = Archspec.Arch.capacity_lines arch `L3 in
  let sharers = Archspec.Arch.l3_sharers arch ~threads in
  let vars_inside idx = List.filteri (fun i _ -> i > idx) loop_vars in
  (* Temporal-reuse volume between consecutive touches of a group's lines:
     the footprint swept under the innermost enclosing loop whose variable
     is absent from the subscript (same rule as {!Costmodel.Cache_model}). *)
  let carried_reuse off =
    let rec find idx best =
      if idx >= nvars then best
      else
        let best =
          if Loopir.Affine.coeff off (var_at idx) = 0 then Some idx else best
        in
        find (idx + 1) best
    in
    match find 0 None with
    | Some idx ->
        Some
          (Costmodel.Cache_model.footprint_bytes ~line_bytes:line ~trips
             ~levels:(vars_inside idx) nest.Loopir.Loop_nest.refs)
    | None -> None
  in
  (* Cross-group reuse: a group lagging a sibling of the same base by k
     strides of an enclosing loop re-touches the sibling's lines k
     iterations of that loop later. *)
  let cross_group_reuse (g : Loopir.Ref_group.t) =
    let leader = g.Loopir.Ref_group.leader in
    List.filter_map
      (fun (other : Loopir.Ref_group.t) ->
        if
          other == g
          || other.Loopir.Ref_group.leader.Loopir.Array_ref.base
             <> leader.Loopir.Array_ref.base
        then None
        else
          match
            Loopir.Affine.is_const
              (Loopir.Affine.sub
                 other.Loopir.Ref_group.leader.Loopir.Array_ref.offset
                 leader.Loopir.Array_ref.offset)
          with
          | Some gap when gap > 0 ->
              let rec find idx =
                if idx >= nvars then None
                else
                  let c =
                    Loopir.Affine.coeff leader.Loopir.Array_ref.offset
                      (var_at idx)
                  in
                  let trip = trip_at idx in
                  if c > 0 && gap mod c = 0 && gap / c >= 1 && gap / c < trip
                  then
                    Some
                      (gap / c
                      * Costmodel.Cache_model.footprint_bytes ~line_bytes:line
                          ~trips ~levels:(vars_inside idx)
                          nest.Loopir.Loop_nest.refs)
                  else find (idx + 1)
              in
              find 0
          | Some _ | None -> None)
      groups
    |> function
    | [] -> None
    | l -> Some (List.fold_left min max_int l)
  in
  (* LRU verdict for one reuse distance (in lines).  The shared L3 sees the
     interleaved streams of every core on the socket, so a thread's own
     distance is stretched by [sharers] — except that lines shared by
     [sigma] threads recur [sigma] times as often, cancelling part of the
     stretch. *)
  let level_of distance ~sigma =
    match distance with
    | None -> Mem
    | Some dist ->
        if dist < w_l1 then L1
        else if dist < w_l2 then L2
        else
          let d_l3 =
            float_of_int dist
            *. Float.max 1. (float_of_int sharers /. float_of_int sigma)
          in
          if d_l3 < float_of_int w_l3 then L3 else Mem
  in
  let pen =
    let lat g = g.Archspec.Cache_geom.hit_latency in
    let l1 = lat arch.Archspec.Arch.l1 in
    function
    | `L2 -> float_of_int (max 0 (lat arch.Archspec.Arch.l2 - l1))
    | `L3 -> float_of_int (max 0 (lat arch.Archspec.Arch.l3 - l1))
    | `C2c -> float_of_int (max 0 (arch.Archspec.Arch.coherence_latency - l1))
    | `Mem -> float_of_int (max 0 (arch.Archspec.Arch.mem_latency - l1))
  in
  (* Per-thread service counts (l1, l2, l3, c2c, mem) of one bin.  A
     memory-level bin on lines shared by [sigma] threads is fetched from
     DRAM once per line team-wide; the remaining [sigma - 1] co-touches
     are served per the group's co-touch class: the shared L3 for
     read-only lines, a remote dirty copy (c2c) for written lines still
     resident in the writer's private cache, DRAM again (after
     writeback) when the interleaving already evicted them. *)
  let serve (b : bin) ~sigma ~co =
    let s = float_of_int sigma in
    match b.level with
    | L1 -> (b.count, 0., 0., 0., 0.)
    | L2 -> (0., b.count, 0., 0., 0.)
    | L3 -> (0., 0., b.count, 0., 0.)
    | Mem when sigma > 1 -> (
        let fetch = b.count /. s in
        let cot = b.count -. fetch in
        match co with
        | Co_l3 -> (0., 0., cot, 0., fetch)
        | Co_c2c -> (0., 0., 0., cot, fetch)
        | Co_mem -> (0., 0., 0., 0., b.count))
    | Mem -> (0., 0., 0., 0., b.count)
  in
  (* Lines a thread pulls through its caches between two co-touches of a
     shared line: the interpreter (and a real runtime) runs 4 parallel
     iterations of one thread (its default window) before the next
     thread reaches the line. *)
  let co_dist_lines =
    4
    * round_up
        (Costmodel.Cache_model.footprint_bytes ~line_bytes:line ~trips
           ~levels:(vars_inside d) nest.Loopir.Loop_nest.refs)
        line
    / line
  in
  let profile_of (g : Loopir.Ref_group.t) =
    let off = g.Loopir.Ref_group.leader.Loopir.Array_ref.offset in
    let members = List.length g.Loopir.Ref_group.members in
    let c_par = abs (Loopir.Affine.coeff off (var_at d)) in
    let sigma =
      if c_par = 0 then threads
      else
        let chunk_bytes = c_par * step_at d * chunk in
        min threads (max 1 (line / max 1 chunk_bytes))
    in
    (* Distinct lines: the group's team-wide footprint per region, shared
       out — each of its lines is resident in [sigma] private stacks. *)
    let s_region_bytes =
      let rec go i acc =
        if i >= nvars then acc
        else
          let c = abs (Loopir.Affine.coeff off (var_at i)) in
          go (i + 1) (acc + (c * step_at i * max 0 (trip_at i - 1)))
      in
      go d g.Loopir.Ref_group.leader.Loopir.Array_ref.size_bytes
    in
    let s_region_lines = round_up s_region_bytes line / line in
    let d_region =
      float_of_int sigma *. float_of_int s_region_lines
      /. float_of_int threads
    in
    (* Line-entry events: each loop level contributes one potential line
       change per advance; the parallel level's cross-chunk advances jump
       by the dealt-out share instead of one step. *)
    let e_region =
      let frac bytes =
        Float.min 1. (float_of_int bytes /. float_of_int line)
      in
      let rec go k n_outer acc =
        if k >= nvars then acc
        else
          let per_thread_trip = if k = d then max_steps else trip_at k in
          let n_k = n_outer * per_thread_trip in
          let c = abs (Loopir.Affine.coeff off (var_at k)) in
          let adv = c * step_at k in
          let crossings =
            if k = d && threads > 1 && c > 0 then
              let jump = c * step_at d * ((chunk * (threads - 1)) + 1) in
              (float_of_int (n_k - cpt) *. frac adv)
              +. (float_of_int cpt *. frac jump)
            else float_of_int n_k *. frac adv
          in
          go (k + 1) n_k (acc +. crossings)
      in
      go d 1 0.
    in
    (* Sequential outer levels whose variable is absent from the subscript
       revisit the same lines every trip; present ones open fresh lines. *)
    let regions_distinct =
      let rec go i acc =
        if i >= d then acc
        else
          let c = abs (Loopir.Affine.coeff off (var_at i)) in
          go (i + 1) (acc * if c = 0 then 1 else trip_at i)
      in
      go 0 1
    in
    let a_total =
      float_of_int members *. float_of_int regions
      *. float_of_int max_steps *. float_of_int inner_per_parallel
    in
    let d_total =
      Float.min a_total (d_region *. float_of_int regions_distinct)
    in
    let e_total =
      Float.max d_total
        (Float.min a_total (e_region *. float_of_int regions))
    in
    let reuse_volume =
      match carried_reuse off with
      | Some v -> Some v
      | None -> cross_group_reuse g
    in
    let far_distance =
      Option.map (fun v -> round_up v line / line) reuse_volume
    in
    let near =
      {
        label = "near";
        distance = Some (ngroups - 1);
        count = a_total -. e_total;
        level = level_of (Some (ngroups - 1)) ~sigma;
      }
    in
    let far =
      {
        label = "far";
        distance = far_distance;
        count = e_total -. d_total;
        level = level_of far_distance ~sigma;
      }
    in
    let cold = { label = "cold"; distance = None; count = d_total; level = Mem } in
    let co =
      if sigma <= 1 then Co_mem
      else if g.Loopir.Ref_group.has_write then
        if co_dist_lines < w_l2 then Co_c2c else Co_mem
      else if co_dist_lines < w_l3 then Co_l3
      else Co_mem
    in
    {
      leader_repr = g.Loopir.Ref_group.leader.Loopir.Array_ref.repr;
      members;
      has_write = g.Loopir.Ref_group.has_write;
      sigma;
      co;
      bins = [ near; far; cold ];
    }
  in
  let profiles = List.map profile_of groups in
  let l1_t, l2_t, l3_t, c2c_t, mem_t, cyc_t =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun (l1, l2, l3, c2c, mem, cyc) b ->
            let b1, b2, b3, bc, bm = serve b ~sigma:p.sigma ~co:p.co in
            ( l1 +. b1,
              l2 +. b2,
              l3 +. b3,
              c2c +. bc,
              mem +. bm,
              cyc
              +. (b2 *. pen `L2)
              +. (b3 *. pen `L3)
              +. (bc *. pen `C2c)
              +. (bm *. pen `Mem) ))
          acc p.bins)
      (0., 0., 0., 0., 0., 0.)
      profiles
  in
  (* Machine-wide scaling: per-bin counts are for the busiest thread
     ([max_steps] parallel steps), so the whole team performs
     [parallel_trip / max_steps] times as much — exactly [threads] when
     the deal is even, less when trailing threads get short shares. *)
  let t =
    if max_steps <= 0 then 0.
    else float_of_int parallel_trip /. float_of_int max_steps
  in
  let accesses = (l1_t +. l2_t +. l3_t +. c2c_t +. mem_t) *. t in
  {
    threads;
    accesses;
    l1_hits = l1_t *. t;
    l2_hits = l2_t *. t;
    l3_hits = l3_t *. t;
    c2c_transfers = c2c_t *. t;
    mem_fetches = mem_t *. t;
    miss_rate =
      (if accesses <= 0. then 0. else (accesses -. (l1_t *. t)) /. accesses);
    cache_cycles = cyc_t;
    groups = profiles;
  }

type analytic = {
  prediction : prediction;
  breakdown : Costmodel.Total_cost.breakdown;
  eq1 : Costmodel.Total_cost.eq1;
  fs_cases : int option;
  fs_note : string;
}

let analyze ?(arch = Archspec.Arch.paper_machine) ?(contention = false) ?chunk
    ?closed ~threads ~params ~checked (nest : Loopir.Loop_nest.t) =
  let env v = List.assoc_opt v params in
  (* The override only rewrites the pragma's schedule, which the closed
     form reads for its kind (and, absent a config chunk, its chunk): an
     estimate of [nest] itself holds for the overridden nest unless the
     override turns a dynamic or guided pragma static. *)
  let shared = chunk = None || Loopir.Loop_nest.schedule_kind nest = `Static in
  let nest =
    match chunk with
    | Some c -> Loopir.Loop_nest.with_static_chunk nest c
    | None -> nest
  in
  let prediction = predict ~arch ~threads ~env nest in
  let closed =
    match closed with
    | Some r when shared -> r
    | _ ->
        let cfg =
          { (Fsmodel.Model.default_config ~arch ~threads ()) with
            Fsmodel.Model.chunk; params }
        in
        Closed_form.estimate cfg ~nest ~checked
  in
  let fs_cases, fs_note =
    match closed with
    | Closed_form.Exact i ->
        (Some i.Closed_form.fs_cases, "closed form, " ^ i.Closed_form.regime)
    | Closed_form.Inapplicable reason -> (None, reason)
  in
  let breakdown =
    Costmodel.Total_cost.compute ~contention
      ~cache_cycles:prediction.cache_cycles ~arch ~threads
      ~fs_cases:(Option.value fs_cases ~default:0)
      ~env ~checked nest
  in
  {
    prediction;
    breakdown;
    eq1 = Costmodel.Total_cost.eq1_of breakdown;
    fs_cases;
    fs_note;
  }

type overhead = {
  threads : int;
  fs_chunk : int;
  nfs_chunk : int;
  n_fs : int;
  n_nfs : int;
  percent : float;
  analytic : analytic;
}

(* [overhead] on a lowered nest, also returning [fs_chunk]'s closed-form
   result.  Each chunking is estimated once: [fs_chunk]'s estimate feeds
   its breakdown, and [nfs_chunk] is skipped when [fs_chunk] has none. *)
let overhead_of ~arch ~contention ~threads ~fs_chunk ~nfs_chunk ~checked nest
    =
  let params = [ ("num_threads", threads) ] in
  let base = Fsmodel.Model.default_config ~arch ~threads () in
  let at chunk =
    Closed_form.estimate { base with Fsmodel.Model.chunk = Some chunk } ~nest
      ~checked
  in
  let closed = at fs_chunk in
  match closed with
  | Closed_form.Inapplicable _ -> (None, closed)
  | Closed_form.Exact f -> (
      match at nfs_chunk with
      | Closed_form.Inapplicable _ -> (None, closed)
      | Closed_form.Exact n ->
          let n_fs = f.Closed_form.fs_cases and n_nfs = n.Closed_form.fs_cases in
          let analytic =
            analyze ~arch ~contention ~chunk:fs_chunk ~closed ~threads ~params
              ~checked nest
          in
          let percent =
            Costmodel.Total_cost.overhead_percent
              ~fs_cost_factor:Costmodel.Total_cost.default_fs_cost_factor ~arch
              ~threads ~n_fs ~n_nfs analytic.breakdown
          in
          ( Some { threads; fs_chunk; nfs_chunk; n_fs; n_nfs; percent; analytic },
            closed ))

let overhead ?(arch = Archspec.Arch.paper_machine) ?(contention = false)
    ~threads ~fs_chunk ~nfs_chunk ~func checked =
  let nest =
    Loopir.Lower.lower checked ~func ~params:[ ("num_threads", threads) ]
  in
  fst
    (overhead_of ~arch ~contention ~threads ~fs_chunk ~nfs_chunk ~checked
       nest)

let overhead_or_analyze ?(arch = Archspec.Arch.paper_machine)
    ?(contention = false) ~threads ~fs_chunk ~nfs_chunk ~checked nest =
  let alone ?closed () =
    analyze ~arch ~contention ~chunk:fs_chunk ?closed ~threads
      ~params:[ ("num_threads", threads) ]
      ~checked nest
  in
  match
    overhead_of ~arch ~contention ~threads ~fs_chunk ~nfs_chunk ~checked nest
  with
  | Some o, _ -> (Some o, o.analytic)
  | None, closed -> (None, alone ~closed ())
  | exception _ -> (None, alone ())

let pp_bin ppf b =
  Format.fprintf ppf "%s d=%s n=%.0f -> %s" b.label
    (match b.distance with Some d -> string_of_int d | None -> "inf")
    b.count (level_name b.level)

let pp_prediction ppf (p : prediction) =
  Format.fprintf ppf
    "@[<v>reuse profile (%d threads): %.0f accesses, miss %.2f%%@,\
     L1 %.0f | L2 %.0f | L3 %.0f | c2c %.0f | mem %.0f; cache stall %.0f \
     cy/thread@,"
    p.threads p.accesses (100. *. p.miss_rate) p.l1_hits p.l2_hits p.l3_hits
    p.c2c_transfers p.mem_fetches p.cache_cycles;
  List.iter
    (fun g ->
      Format.fprintf ppf "  %s x%d%s sigma=%d: %a@," g.leader_repr g.members
        (if g.has_write then " (w)" else "")
        g.sigma
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_bin)
        g.bins)
    p.groups;
  Format.fprintf ppf "@]"

let pp_analytic ppf a =
  Format.fprintf ppf "@[<v>%a@,%a@,%a@,FS count: %s@]" pp_prediction
    a.prediction Costmodel.Total_cost.pp a.breakdown Costmodel.Total_cost.pp_eq1
    a.eq1
    (match a.fs_cases with
    | Some n -> Printf.sprintf "%d (%s)" n a.fs_note
    | None -> "unavailable (" ^ a.fs_note ^ ")")
