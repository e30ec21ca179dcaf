open Loopir

type info = {
  fs_cases : int;
  lines_analyzed : int;
  regions : int;
  regime : string;
}

type result = Exact of info | Inapplicable of string

exception Fallback of string

let bail fmt = Format.kasprintf (fun s -> raise (Fallback s)) fmt

let popcount =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  fun n -> go n 0

let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* A reference resolved within one region: at parallel iteration [q]
   (0-based) it touches bytes [addr0 + stride*q, addr0 + stride*q + size). *)
type rref = { addr0 : int; stride : int; size : int; write : bool }

(* Countable references of one base sharing a stride: at any fixed
   iteration their addresses stay within [spread + maxsz] bytes of each
   other, which bounds the distinct lines they insert over a gap. *)
type sgroup = { s : int; spread : int; maxsz : int }

type binfo = {
  bname : string;
  brefs : rref list;  (* resolved refs; [] when not countable *)
  bwritten : bool;
  countable : bool;  (* every ref affine in the parallel variable only *)
  nrefs_b : int;  (* reference count, including unresolved ones *)
  linespan : int;  (* cache lines the base's refs can reach this region *)
  groups : sgroup list;
}

type region = {
  rn : int;  (* parallel trip count *)
  rchunk : int;
  rip : int;  (* inner iterations per parallel iteration *)
  rsteps : int;  (* lockstep steps: max_steps_per_thread * rip *)
  rbases : binfo list;
  rall_countable : bool;
}

(* Per-line simulation state carried across regions: which threads hold
   the line modified (the engine's sticky written bit) and the global
   lockstep step of each thread's last touch.  One small record per
   line: a flat table per estimate raised peak memory, as the parametric
   fit makes hundreds of estimates. *)
type lstate = { mutable writers : int; last : int array }

(* The events of one cache line in (parallel step, thread) order: entry
   [e < n] says thread [tid.(e)] touches the line at its parallel step
   [kpar.(e)], writing it when [wr.(e)].  One buffer serves every line
   of an estimate; it is refilled in place and grown on demand. *)
type events = {
  mutable n : int;
  mutable kpar : int array;
  mutable tid : int array;
  mutable wr : bool array;
}

(* bumped from every domain, like [Fsmodel.Model.run_count] *)
let estimates = Atomic.make 0
let estimate_count () = Atomic.get estimates

let estimate (cfg : Fsmodel.Model.config) ~(nest : Loop_nest.t) ~checked =
  Atomic.incr estimates;
  try
    (match Loop_nest.schedule_kind nest with
    | `Static -> ()
    | `Dynamic | `Guided -> bail "only schedule(static) is round-robin");
    (match cfg.Fsmodel.Model.sched with
    | None -> ()
    | Some _ -> bail "a replayed dispatch plan is not the static round-robin deal");
    if cfg.Fsmodel.Model.invalidate_on_write then
      bail "the invalidate-on-write ablation is not modeled in closed form";
    let threads = cfg.Fsmodel.Model.threads in
    if threads < 1 then bail "thread count %d < 1" threads;
    if threads > 62 then bail "more than 62 threads (writer-set bitmask)";
    let arch = cfg.Fsmodel.Model.arch in
    let capacity =
      match cfg.Fsmodel.Model.stack with
      | Fsmodel.Model.Level_l1 -> Archspec.Cache_geom.lines arch.Archspec.Arch.l1
      | Fsmodel.Model.Level_l2 -> Archspec.Cache_geom.lines arch.Archspec.Arch.l2
      | Fsmodel.Model.Lines n -> n
      | Fsmodel.Model.Unbounded -> max_int
    in
    if capacity < 1 then bail "stack capacity %d < 1" capacity;
    let params = cfg.Fsmodel.Model.params in
    let lb = Archspec.Arch.line_bytes arch in
    let layout = Layout.make ~line_bytes:lb checked in
    let loops = Array.of_list nest.Loop_nest.loops in
    let nloops = Array.length loops in
    let d = nest.Loop_nest.parallel_depth in
    let ploop = loops.(d) in
    let pvar = ploop.Loop_nest.var in
    let pstep = ploop.Loop_nest.step in
    let idx = Array.make nloops 0 in
    (* same environment the engine uses: parameters shadow loop variables *)
    let env : (string, [ `Param of int | `Slot of int ]) Hashtbl.t =
      Hashtbl.create 16
    in
    Array.iteri
      (fun i (l : Loop_nest.loop) -> Hashtbl.replace env l.Loop_nest.var (`Slot i))
      loops;
    List.iter (fun (v, k) -> Hashtbl.replace env v (`Param k)) (List.rev params);
    let lookup v =
      match Hashtbl.find_opt env v with
      | Some (`Param k) -> Some k
      | Some (`Slot i) -> Some idx.(i)
      | None -> None
    in
    (* analysis work budget: the estimator must stay cheap next to the
       engine it replaces *)
    let ops = ref 0 in
    let tick n =
      ops := !ops + n;
      if !ops > 60_000_000 then bail "analysis budget exceeded"
    in
    let lines_seen = ref 0 in
    (* fold parameters into every offset and shift by the base address *)
    let folded =
      List.map
        (fun (r : Array_ref.t) ->
          let a =
            Affine.subst
              (fun v ->
                match List.assoc_opt v params with
                | Some k -> Some (Affine.const k)
                | None -> None)
              r.Array_ref.offset
          in
          let base_addr =
            try Layout.addr_of layout r.Array_ref.base
            with Not_found -> bail "unknown base %s" r.Array_ref.base
          in
          List.iter
            (fun v ->
              if not (Array.exists (fun (l : Loop_nest.loop) -> l.Loop_nest.var = v) loops)
              then bail "free variable %s in subscript of %s" v r.Array_ref.repr)
            (Affine.vars a);
          (r, Affine.add a (Affine.const base_addr)))
        nest.Loop_nest.refs
    in
    let base_names =
      List.fold_left
        (fun acc (r : Array_ref.t) ->
          if List.mem r.Array_ref.base acc then acc else r.Array_ref.base :: acc)
        [] nest.Loop_nest.refs
      |> List.rev
    in
    (* global per-base address interval, for the line-disjointness check *)
    let extent : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    let widen name lo hi =
      match Hashtbl.find_opt extent name with
      | None -> Hashtbl.replace extent name (lo, hi)
      | Some (l0, h0) -> Hashtbl.replace extent name (min l0 lo, max h0 hi)
    in
    (* ---- region construction (mirrors Model.run's outer walk) ---- *)
    let regions = ref [] in
    let n_regions = ref 0 in
    let add_region () =
      let par_lower = Expr_eval.eval lookup ploop.Loop_nest.lower in
      let par_trip = Loop_nest.trip_count ploop ~env:lookup in
      if par_trip > 0 then begin
        idx.(d) <- par_lower;
        let inner = Array.sub loops (d + 1) (nloops - d - 1) in
        let inner_lowers =
          Array.map
            (fun (l : Loop_nest.loop) -> Expr_eval.eval lookup l.Loop_nest.lower)
            inner
        in
        let inner_trips =
          Array.map (fun l -> Loop_nest.trip_count l ~env:lookup) inner
        in
        let ip = Array.fold_left ( * ) 1 inner_trips in
        if ip > 0 then begin
          incr n_regions;
          if !n_regions > 4096 then bail "too many sequential regions";
          let chunk =
            match cfg.Fsmodel.Model.chunk with
            | Some c -> c
            | None -> (
                match Loop_nest.chunk_spec nest with
                | Some c -> c
                | None ->
                    Ompsched.Schedule.block_chunk ~threads ~total:par_trip)
          in
          let sched = Ompsched.Schedule.make ~threads ~chunk ~total:par_trip in
          let steps = Ompsched.Schedule.max_steps_per_thread sched * ip in
          let inner_index v =
            let r = ref (-1) in
            Array.iteri
              (fun j (l : Loop_nest.loop) -> if l.Loop_nest.var = v then r := j)
              inner;
            !r
          in
          let rng v =
            if v = pvar then (par_lower, par_lower + ((par_trip - 1) * pstep))
            else
              let j = inner_index v in
              if j < 0 then bail "free variable %s in a subscript" v
              else
                ( inner_lowers.(j),
                  inner_lowers.(j)
                  + ((inner_trips.(j) - 1) * inner.(j).Loop_nest.step) )
          in
          let interval_of a size =
            let c = Affine.const_part a in
            let mn, mx =
              List.fold_left
                (fun (mn, mx) v ->
                  let k = Affine.coeff a v in
                  let vlo, vhi = rng v in
                  if k >= 0 then (mn + (k * vlo), mx + (k * vhi))
                  else (mn + (k * vhi), mx + (k * vlo)))
                (c, c) (Affine.vars a)
            in
            (mn, mx + size - 1)
          in
          let bases =
            List.map
              (fun name ->
                let brs =
                  List.filter
                    (fun ((r : Array_ref.t), _) -> r.Array_ref.base = name)
                    folded
                in
                let written =
                  List.exists (fun (r, _) -> Array_ref.is_write r) brs
                in
                let resolved =
                  List.map
                    (fun ((r : Array_ref.t), a) ->
                      (* fold the current outer-loop values *)
                      let a2 =
                        Affine.subst
                          (fun v ->
                            match Hashtbl.find_opt env v with
                            | Some (`Slot i) when i < d ->
                                Some (Affine.const idx.(i))
                            | _ -> None)
                          a
                      in
                      let lo, hi = interval_of a2 r.Array_ref.size_bytes in
                      widen name lo hi;
                      let par_only =
                        List.for_all (fun v -> v = pvar) (Affine.vars a2)
                      in
                      (r, a2, par_only))
                    brs
                in
                let countable = List.for_all (fun (_, _, p) -> p) resolved in
                if written && not countable then
                  bail
                    "a reference to written base %s depends on an inner loop \
                     variable"
                    name;
                let rrefs =
                  if not countable then []
                  else
                    List.map
                      (fun ((r : Array_ref.t), a2, _) ->
                        let k = Affine.coeff a2 pvar in
                        let stride = k * pstep in
                        let write = Array_ref.is_write r in
                        if write && stride <= 0 then
                          bail
                            "write %s does not advance by a positive stride"
                            r.Array_ref.repr;
                        if stride < 0 then
                          bail "%s sweeps backwards" r.Array_ref.repr;
                        {
                          addr0 = Affine.const_part a2 + (k * par_lower);
                          stride;
                          size = r.Array_ref.size_bytes;
                          write;
                        })
                      resolved
                in
                let groups =
                  (* stride groups with addr0 spread *)
                  let tbl = Hashtbl.create 4 in
                  List.iter
                    (fun (rf : rref) ->
                      match Hashtbl.find_opt tbl rf.stride with
                      | None ->
                          Hashtbl.replace tbl rf.stride
                            (rf.addr0, rf.addr0, rf.size)
                      | Some (lo, hi, ms) ->
                          Hashtbl.replace tbl rf.stride
                            (min lo rf.addr0, max hi rf.addr0, max ms rf.size))
                    rrefs;
                  Hashtbl.fold
                    (fun s (lo, hi, ms) acc ->
                      { s; spread = hi - lo; maxsz = ms } :: acc)
                    tbl []
                  |> List.sort (fun a b -> compare a.s b.s)
                in
                let lo_b, hi_b =
                  List.fold_left
                    (fun (l, h) ((r : Array_ref.t), a2, _) ->
                      let rl, rh = interval_of a2 r.Array_ref.size_bytes in
                      (min l rl, max h rh))
                    (max_int, min_int) resolved
                in
                {
                  bname = name;
                  brefs = rrefs;
                  bwritten = written;
                  countable;
                  nrefs_b = List.length brs;
                  linespan = fdiv hi_b lb - fdiv lo_b lb + 1;
                  groups;
                })
              base_names
          in
          regions :=
            {
              rn = par_trip;
              rchunk = chunk;
              rip = ip;
              rsteps = steps;
              rbases = bases;
              rall_countable = List.for_all (fun b -> b.countable) bases;
            }
            :: !regions
        end
      end
    in
    let rec walk level =
      if level = d then add_region ()
      else begin
        let l = loops.(level) in
        let lo = Expr_eval.eval lookup l.Loop_nest.lower in
        let hi = Expr_eval.eval lookup l.Loop_nest.upper_excl in
        let v = ref lo in
        while !v < hi do
          idx.(level) <- !v;
          walk (level + 1);
          v := !v + l.Loop_nest.step
        done
      end
    in
    walk 0;
    let rs = Array.of_list (List.rev !regions) in
    let r_count = Array.length rs in
    if r_count = 0 then
      Exact { fs_cases = 0; lines_analyzed = 0; regions = 0; regime = "empty" }
    else begin
      (* distinct bases must occupy distinct cache lines, or per-base
         line accounting breaks (only out-of-bounds code violates this) *)
      let names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) extent [] in
      List.iteri
        (fun i (na, (la, ha)) ->
          List.iteri
            (fun j (nb, (lbo, hb)) ->
              if j > i && fdiv ha lb >= fdiv lbo lb && fdiv hb lb >= fdiv la lb
              then bail "bases %s and %s may share cache lines" na nb)
            names)
        names;
      (* Upper bound on the distinct cache lines one thread can insert
         over [w] lockstep steps inside region [r].  Lockstep means the
         thread advances at most [w/ip + 1] parallel-level positions, so
         a stride-[s] group of references stays within a computable byte
         span; inner-dependent references are bounded by their whole-
         region footprint; everything is capped by two lines per
         reference per executed iteration. *)
      let bound (r : region) w =
        let dk = (w / r.rip) + 1 in
        let qspan = (dk + r.rchunk) * threads in
        List.fold_left
          (fun acc b ->
            let by_steps = (w + 1) * 2 * b.nrefs_b in
            let m = min by_steps b.linespan in
            let m =
              if b.countable then
                min m
                  (List.fold_left
                     (fun a g ->
                       a + (((g.s * qspan) + g.spread + g.maxsz) / lb) + 2)
                     0 b.groups)
              else m
            in
            acc + m)
          0 r.rbases
      in
      let ev =
        { n = 0; kpar = Array.make 64 0; tid = Array.make 64 0;
          wr = Array.make 64 false }
      in
      (* enumerate the lines of one countable base in one region; calls
         [f line ev] with [ev] holding the line's events *)
      let iter_lines (r : region) (b : binfo) f =
        let refs = Array.of_list b.brefs in
        let nr = Array.length refs in
        if nr > 0 then begin
          let chunk = r.rchunk in
          let lo =
            Array.fold_left (fun m (rf : rref) -> min m rf.addr0) max_int refs
          in
          let hi =
            Array.fold_left
              (fun m (rf : rref) ->
                max m (rf.addr0 + (rf.stride * (r.rn - 1)) + rf.size - 1))
              min_int refs
          in
          (* reference [k] touches the line at iterations [wa.(k), wz.(k)] *)
          let wa = Array.make nr 1 and wz = Array.make nr 0 in
          (* append iteration [q], run by thread [t] at parallel step
             [kpar], if some reference touches the line there *)
          let emit q kpar t =
            let cov = ref false and w = ref false in
            for k = 0 to nr - 1 do
              if q >= wa.(k) && q <= wz.(k) then begin
                cov := true;
                if refs.(k).write then w := true
              end
            done;
            if !cov then begin
              let e = ev.n in
              ev.kpar.(e) <- kpar;
              ev.tid.(e) <- t;
              ev.wr.(e) <- !w;
              ev.n <- e + 1
            end
          in
          (* offset [j] of chunk [c], dealt in round [round] *)
          let at round c j =
            emit ((c * chunk) + j) ((round * chunk) + j) (c - (round * threads))
          in
          for line = fdiv lo lb to fdiv hi lb do
            let lbyte = line * lb in
            let q0 = ref max_int and q1 = ref min_int in
            for k = 0 to nr - 1 do
              let rf = refs.(k) in
              if rf.stride > 0 then begin
                wa.(k) <- max 0 (cdiv (lbyte - rf.addr0 - rf.size + 1) rf.stride);
                wz.(k) <-
                  min (r.rn - 1) (fdiv (lbyte + lb - 1 - rf.addr0) rf.stride)
              end
              else if rf.addr0 <= lbyte + lb - 1 && rf.addr0 + rf.size - 1 >= lbyte
              then begin
                wa.(k) <- 0;
                wz.(k) <- r.rn - 1
              end
              else begin
                wa.(k) <- 1;
                wz.(k) <- 0
              end;
              if wa.(k) <= wz.(k) then begin
                if wa.(k) < !q0 then q0 := wa.(k);
                if wz.(k) > !q1 then q1 := wz.(k)
              end
            done;
            let q0 = !q0 and q1 = !q1 in
            if q0 <= q1 then begin
              tick (q1 - q0 + 1);
              if Array.length ev.kpar < q1 - q0 + 1 then begin
                let cap = max (q1 - q0 + 1) (2 * Array.length ev.kpar) in
                ev.kpar <- Array.make cap 0;
                ev.tid <- Array.make cap 0;
                ev.wr <- Array.make cap false
              end;
              ev.n <- 0;
              (* Emit [q0, q1] in (parallel step, thread) order with no
                 sort.  Chunk [c] is dealt to thread [c mod threads] in
                 round [c / threads], and its offset-[j] iteration runs
                 at step [round * chunk + j]: rounds never interleave,
                 and within a round the order is (offset, chunk). *)
              let c0 = q0 / chunk and c1 = q1 / chunk in
              for round = c0 / threads to c1 / threads do
                let rt = round * threads in
                let ca = max c0 rt and cb = min c1 (rt + threads - 1) in
                (* offsets [ja, chunk) of chunk [ca] and [0, jb] of [cb]
                   lie in the window; chunks between them lie wholly in *)
                let ja = if ca = c0 then q0 - (ca * chunk) else 0
                and jb = if cb = c1 then q1 - (cb * chunk) else chunk - 1 in
                if ca = cb then
                  for j = ja to jb do
                    at round ca j
                  done
                else if cb = ca + 1 then begin
                  (* two partial chunks: merge by offset, [ca] first *)
                  let i = ref ja and k = ref 0 in
                  while !i < chunk || !k <= jb do
                    if !i < chunk && (!k > jb || !i <= !k) then begin
                      at round ca !i;
                      incr i
                    end
                    else begin
                      at round cb !k;
                      incr k
                    end
                  done
                end
                else
                  (* whole chunks in between bound the sweep's waste *)
                  for j = 0 to chunk - 1 do
                    if j >= ja then at round ca j;
                    for c = ca + 1 to cb - 1 do
                      at round c j
                    done;
                    if j <= jb then at round cb j
                  done
              done;
              if ev.n > 0 then f line ev
            end
          done
        end
      in
      (* end of the run of events sharing [ev.kpar.(i)] *)
      let group_end (ev : events) i =
        let j = ref (i + 1) in
        while !j < ev.n && ev.kpar.(!j) = ev.kpar.(i) do
          incr j
        done;
        !j
      in
      (* ---- exact counting with per-line state carried across regions ---- *)
      let global_fs (sel : region array) =
        let tbl : (int, lstate) Hashtbl.t = Hashtbl.create 1024 in
        let nsel = Array.length sel in
        let starts = Array.make nsel 0 in
        (* residency certificates already issued, see [certify] *)
        let memo_for = Array.make nsel (-1) and memo_gap = Array.make nsel 0 in
        let fs = ref 0 in
        let base_step = ref 0 in
        Array.iteri
          (fun ri r ->
            starts.(ri) <- !base_step;
            let region_of step =
              let i = ref ri in
              while !i > 0 && starts.(!i) > step do decr i done;
              !i
            in
            (* The holder last touched the line at global step [lt]; its
               residency through [step_end] must be certain: the lines
               inserted over the gap [w], at most [need w] = the sum of
               [bound] over regions [region_of lt .. ri], must stay below
               the capacity.  For a fixed first region [need] never
               decreases as [w] grows: [min w rsteps] does not, and
               neither does any term of [bound] ([by_steps], [linespan],
               and each stride group's span through [dk = w/rip + 1],
               strides being non-negative).  So, while counting region
               [ri], a gap no wider than one already certified from the
               same first region passes without summing.  Only passing
               gaps are recorded, so the first failing gap is still
               summed and bails with the same message. *)
            let certify lt step_end =
              let w = step_end - lt in
              let lo_r = region_of lt in
              if memo_for.(lo_r) <> ri || w > memo_gap.(lo_r) then begin
                let need = ref 0 in
                for i = lo_r to ri do
                  need := !need + bound sel.(i) (min w sel.(i).rsteps)
                done;
                if !need > capacity - 1 then
                  bail "line residency across a %d-step gap is uncertain" w;
                memo_for.(lo_r) <- ri;
                memo_gap.(lo_r) <- w
              end
            in
            (* Every thread [h] whose sticky written bit we rely on —
               holders counted now, and the toucher's own chain — must
               certainly still be resident; [gmask] threads touch the line
               at every step of the current group.  The check depends on
               the group alone, so it runs once per holder and group:
               [checked] holds the holders done, and is returned updated. *)
            let check st gmask step_end checked h =
              if checked land (1 lsl h) <> 0 then checked
              else begin
                if gmask land (1 lsl h) <> 0 then
                  certify (step_end - 1) step_end
                else begin
                  let lt = st.last.(h) in
                  if lt < 0 then bail "internal: holder without a prior touch";
                  certify lt step_end
                end;
                checked lor (1 lsl h)
              end
            in
            let count_line line (ev : events) =
              let st =
                match Hashtbl.find tbl line with
                | s -> s
                | exception Not_found ->
                    incr lines_seen;
                    let s = { writers = 0; last = Array.make threads (-1) } in
                    Hashtbl.add tbl line s;
                    s
              in
              let i = ref 0 in
              while !i < ev.n do
                let j = group_end ev !i in
                let step_end = !base_step + (ev.kpar.(!i) * r.rip) + r.rip - 1 in
                let gmask = ref 0 in
                for e = !i to j - 1 do
                  gmask := !gmask lor (1 lsl ev.tid.(e))
                done;
                let gmask = !gmask in
                tick (j - !i);
                let checked = ref 0 in
                let s0 = ref 0 in
                for e = !i to j - 1 do
                  let t = ev.tid.(e) in
                  let bit = 1 lsl t in
                  if st.writers land bit <> 0 then
                    checked := check st gmask step_end !checked t;
                  let others = st.writers land lnot bit in
                  if others <> 0 then begin
                    for h = 0 to threads - 1 do
                      if others land (1 lsl h) <> 0 then
                        checked := check st gmask step_end !checked h
                    done;
                    s0 := !s0 + popcount others
                  end;
                  if ev.wr.(e) then st.writers <- st.writers lor bit
                done;
                (* inner steps 2..ip repeat the group against the settled
                   mask *)
                if r.rip > 1 then begin
                  let s1 = ref 0 in
                  for e = !i to j - 1 do
                    s1 := !s1 + popcount (st.writers land lnot (1 lsl ev.tid.(e)))
                  done;
                  fs := !fs + !s0 + ((r.rip - 1) * !s1)
                end
                else fs := !fs + !s0;
                for e = !i to j - 1 do
                  st.last.(ev.tid.(e)) <- step_end
                done;
                i := j
              done
            in
            List.iter
              (fun b -> if b.bwritten then iter_lines r b count_line)
              r.rbases;
            base_step := !base_step + r.rsteps)
          sel;
        !fs
      in
      (* ---- hold regime: nothing is ever evicted ---- *)
      let hold_fs (r : region) rc =
        let fs = ref 0 in
        let count_line _line (ev : events) =
          incr lines_seen;
          let writers = ref 0 in
          let first = ref 0 in
          let i = ref 0 in
          while !i < ev.n do
            let j = group_end ev !i in
            let s0 = ref 0 in
            for e = !i to j - 1 do
              let bit = 1 lsl ev.tid.(e) in
              s0 := !s0 + popcount (!writers land lnot bit);
              if ev.wr.(e) then writers := !writers lor bit
            done;
            if r.rip > 1 then begin
              let s1 = ref 0 in
              for e = !i to j - 1 do
                s1 := !s1 + popcount (!writers land lnot (1 lsl ev.tid.(e)))
              done;
              first := !first + !s0 + ((r.rip - 1) * !s1)
            end
            else first := !first + !s0;
            i := j
          done;
          (* steady-state regions: the writer set is complete from region
             one and never decays *)
          let steady = ref 0 in
          for e = 0 to ev.n - 1 do
            steady := !steady + popcount (!writers land lnot (1 lsl ev.tid.(e)))
          done;
          fs := !fs + !first + ((rc - 1) * r.rip * !steady)
        in
        List.iter
          (fun b -> if b.bwritten then iter_lines r b count_line)
          r.rbases;
        !fs
      in
      (* ---- per-thread distinct-line footprint of one region ---- *)
      let footprint (r : region) =
        let dj = Array.make threads 0 in
        let count_line _line (ev : events) =
          let m = ref 0 in
          for e = 0 to ev.n - 1 do
            m := !m lor (1 lsl ev.tid.(e))
          done;
          for t = 0 to threads - 1 do
            if !m land (1 lsl t) <> 0 then dj.(t) <- dj.(t) + 1
          done
        in
        List.iter
          (fun b -> if b.countable then iter_lines r b count_line)
          r.rbases;
        dj
      in
      let identical =
        r_count > 1 && Array.for_all (fun r -> r = rs.(0)) rs
      in
      let fs_total, regime =
        if identical then begin
          let r0 = rs.(0) in
          let dj = footprint r0 in
          let sched =
            Ompsched.Schedule.make ~threads ~chunk:r0.rchunk ~total:r0.rn
          in
          let reset_ok = ref true and hold_ok = ref r0.rall_countable in
          for t = 0 to threads - 1 do
            if Ompsched.Schedule.count_of_thread sched ~tid:t > 0
               && dj.(t) - 1 < capacity
            then reset_ok := false;
            if dj.(t) > capacity then hold_ok := false
          done;
          if !reset_ok then
            (* every thread floods its stack with at least capacity+1
               distinct lines per region, so every line is certainly
               evicted between two regions: regions count independently *)
            (r_count * global_fs [| r0 |], "reset")
          else if !hold_ok then
            (* no thread ever exceeds the stack: nothing is evicted *)
            (hold_fs r0 r_count, "hold")
          else
            bail
              "cross-region cache residency is uncertain (per-thread \
               footprint straddles the stack capacity)"
        end
        else (global_fs rs, if r_count = 1 then "single" else "multi")
      in
      Exact
        {
          fs_cases = fs_total;
          lines_analyzed = !lines_seen;
          regions = r_count;
          regime;
        }
    end
  with Fallback m -> Inapplicable m

(* ---------------------------------------------------------------- *)
(* Parametric certificates                                           *)
(* ---------------------------------------------------------------- *)

(* With every parameter but one fixed, the exact count is a
   quasi-polynomial in the free parameter [p]: for p = base + r + M*q
   (0 <= r < M), a polynomial in q whose degree is the number of loops
   whose bounds mention [p].  [M] is the least period of the schedule
   round-robin pattern (chunk * threads) and of every countable stride's
   cache-line phase (line_bytes / gcd(line_bytes, stride)), so shifting
   [p] by [M] adds a fixed pattern of whole lines.  The certificate
   stores the per-residue Newton forward differences; each was fitted on
   degree+1 oracle samples and cross-checked against the oracle at up to
   four further points including the domain's far end. *)
type sym_cert = {
  sc_param : string;
  sc_base : int;  (* domain lower bound *)
  sc_hi : int;  (* domain upper bound, inclusive *)
  sc_modulus : int;
  sc_coeffs : int array array;
      (* [sc_coeffs.(r).(j)] = j-th forward difference for residue r *)
  sc_tail : (int * int) list;
      (* boundary corrections: points near [sc_hi] where the count
         deviates from the quasi-polynomial (e.g. the written segments of
         adjacent outer iterations close to within a line of each other),
         tabulated exactly *)
  sc_regime : string;
}

type sym_result = Sym of sym_cert | Sym_inapplicable of string

(* binomial(q, j) for small j; exact in 63-bit for every q in a domain *)
let binom q j =
  let n = ref 1 and d = ref 1 in
  for i = 0 to j - 1 do
    n := !n * (q - i);
    d := !d * (i + 1)
  done;
  !n / !d

let newton_eval coeffs q =
  let acc = ref 0 in
  Array.iteri (fun j c -> acc := !acc + (c * binom q j)) coeffs;
  !acc

let sym_eval cert p =
  if p < cert.sc_base || p > cert.sc_hi then
    invalid_arg
      (Printf.sprintf "Closed_form.sym_eval: %s = %d outside validated domain \
                       [%d, %d]"
         cert.sc_param p cert.sc_base cert.sc_hi);
  match List.assoc_opt p cert.sc_tail with
  | Some v -> v
  | None ->
      let x = p - cert.sc_base in
      newton_eval cert.sc_coeffs.(x mod cert.sc_modulus) (x / cert.sc_modulus)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

(* trim trailing zero differences so degrees compare meaningfully *)
let trim c =
  let n = ref (Array.length c) in
  while !n > 0 && c.(!n - 1) = 0 do
    decr n
  done;
  Array.sub c 0 !n

let estimate_sym (cfg : Fsmodel.Model.config) ~(nest : Loop_nest.t) ~checked
    ~param ?(hi = 32768) () =
  let mentions e =
    let rec go (e : Minic.Ast.expr) =
      match e with
      | Minic.Ast.Ident v -> v = param
      | Minic.Ast.Unop (_, a) -> go a
      | Minic.Ast.Binop (_, a, b) -> go a || go b
      | _ -> false
    in
    go e
  in
  let threads = cfg.Fsmodel.Model.threads in
  let chunk =
    match cfg.Fsmodel.Model.chunk with
    | Some c -> Some c
    | None -> Loop_nest.chunk_spec nest
  in
  match chunk with
  | None ->
      Sym_inapplicable
        "schedule(static) without a chunk distributes parameter-dependent \
         blocks"
  | Some chunk -> (
      (* modulus: schedule round-robin period, lcm'd with each countable
         stride's line period *)
      let lb = Archspec.Arch.line_bytes cfg.Fsmodel.Model.arch in
      let pvar = (Loop_nest.parallel_loop nest).Loop_nest.var in
      let pstep = (Loop_nest.parallel_loop nest).Loop_nest.step in
      let modulus =
        List.fold_left
          (fun m (r : Array_ref.t) ->
            let k =
              Affine.coeff
                (Affine.subst
                   (fun v ->
                     match List.assoc_opt v cfg.Fsmodel.Model.params with
                     | Some c -> Some (Affine.const c)
                     | None -> None)
                   r.Array_ref.offset)
                pvar
            in
            let stride = k * pstep in
            if stride = 0 then m else lcm m (lb / gcd lb stride))
          (chunk * threads) nest.Loop_nest.refs
      in
      if modulus <= 0 || modulus > 512 then
        Sym_inapplicable
          (Printf.sprintf "round-robin period %d is degenerate or too large"
             modulus)
      else
        let degree =
          let d =
            List.fold_left
              (fun d (l : Loop_nest.loop) ->
                if mentions l.Loop_nest.lower || mentions l.Loop_nest.upper_excl
                then d + 1
                else d)
              0 nest.Loop_nest.loops
          in
          min 3 (max 0 d)
        in
        let fail = ref "" in
        (* oracle: the certifying analytic count where it applies, the
           simulation engine otherwise (its count is the ground truth the
           certificate promises to match, so fitting on it is sound —
           just slower, hence only on analytic inapplicability) *)
        let count_at p =
          let cfg' =
            {
              cfg with
              Fsmodel.Model.params = (param, p) :: cfg.Fsmodel.Model.params;
            }
          in
          match estimate cfg' ~nest ~checked with
          | Exact i -> Some (i.fs_cases, i.regime)
          | Inapplicable m -> (
              match
                try
                  Some
                    (Fsmodel.Model.run cfg' ~nest ~checked)
                      .Fsmodel.Model.fs_cases
                with _ -> None
              with
              | Some c -> Some (c, "engine")
              | None ->
                  fail := Printf.sprintf "at %s = %d: %s" param p m;
                  None)
        in
        let sample p regime_ref =
          match count_at p with
          | None -> None
          | Some (c, regime) -> (
              match !regime_ref with
              | None ->
                  regime_ref := Some regime;
                  Some c
              | Some rg when rg = regime -> Some c
              | Some rg ->
                  fail :=
                    Printf.sprintf "regime changes from %s to %s at %s = %d"
                      rg regime param p;
                  None)
        in
        (* fit starting at [base]; the certificate then covers
           [base, hi], so try small bases first and climb past regime
           transitions *)
        let attempt base =
          let qmax = (hi - base - (modulus - 1)) / modulus in
          if qmax < degree + 2 then None
          else begin
            let regime_ref = ref None in
            let exception Stop in
            try
              let coeffs =
                Array.init modulus (fun r ->
                    let f =
                      Array.init (degree + 1) (fun q ->
                          match
                            sample (base + r + (modulus * q)) regime_ref
                          with
                          | Some v -> v
                          | None -> raise Stop)
                    in
                    (* forward differences in place *)
                    let c = Array.copy f in
                    for j = 1 to degree do
                      for i = degree downto j do
                        c.(i) <- c.(i) - c.(i - 1)
                      done
                    done;
                    (* interior checks; the far end is covered by the
                       boundary scan below *)
                    let checks =
                      List.sort_uniq compare
                        [ degree + 1; degree + 2; qmax / 2; 3 * qmax / 4 ]
                      |> List.filter (fun q -> q > degree && q <= qmax)
                    in
                    List.iter
                      (fun q ->
                        match sample (base + r + (modulus * q)) regime_ref with
                        | None -> raise Stop
                        | Some v ->
                            if v <> newton_eval c q then begin
                              fail :=
                                Printf.sprintf
                                  "fit check failed at %s = %d (residue %d)"
                                  param
                                  (base + r + (modulus * q))
                                  r;
                              raise Stop
                            end)
                      checks;
                    c)
              in
              (* Boundary scan: near [hi] the fit can break even though
                 the bulk is exactly quasi-polynomial — e.g. once the
                 written segments of adjacent outer iterations come
                 within a cache line of each other, lines are shared
                 across rows and the count jumps.  Walk down from [hi]
                 comparing the oracle against the polynomial; tabulate
                 mismatches, and accept once a full period agrees in a
                 row (the same window a +M shift reproduces).  More than
                 two periods of corrections means the fit itself is
                 wrong, not the boundary. *)
              let predict p =
                let x = p - base in
                newton_eval coeffs.(x mod modulus) (x / modulus)
              in
              let tail = ref [] in
              let consec = ref 0 in
              let p = ref hi in
              let floor_p = base + (modulus * (degree + 1)) in
              while !consec < modulus && !p >= floor_p do
                (match count_at !p with
                | None -> raise Stop
                | Some (c, _) ->
                    if c = predict !p then incr consec
                    else begin
                      consec := 0;
                      tail := (!p, c) :: !tail;
                      if List.length !tail > 2 * modulus then begin
                        fail :=
                          Printf.sprintf
                            "fit check failed at %s = %d and %d more points"
                            param !p
                            (List.length !tail - 1);
                        raise Stop
                      end
                    end);
                decr p
              done;
              if !consec < modulus then begin
                fail :=
                  Printf.sprintf
                    "fit never stabilizes below %s = %d" param hi;
                raise Stop
              end;
              Some
                (Sym
                   {
                     sc_param = param;
                     sc_base = base;
                     sc_hi = hi;
                     sc_modulus = modulus;
                     sc_coeffs = coeffs;
                     sc_tail = !tail;
                     sc_regime =
                       (match !regime_ref with Some r -> r | None -> "empty");
                   })
            with Stop -> None
          end
        in
        let ladder =
          List.filter
            (fun b -> b < hi)
            [ 64; 256; 1024; 4096; 8192; 12288; 16384; 20480; 24576; 28672 ]
        in
        let rec try_bases = function
          | [] ->
              Sym_inapplicable
                (if !fail = "" then
                   Printf.sprintf "domain [.., %d] too small to fit and check"
                     hi
                 else !fail)
          | b :: rest -> (
              match attempt b with Some s -> s | None -> try_bases rest)
        in
        try_bases ladder)

let sym_to_string cert =
  let m = cert.sc_modulus in
  let coeffs = Array.map trim cert.sc_coeffs in
  let q_def =
    Printf.sprintf "q = (%s - %d) / %d" cert.sc_param cert.sc_base m
  in
  let r_def =
    Printf.sprintf "r = (%s - %d) mod %d" cert.sc_param cert.sc_base m
  in
  let domain =
    let base =
      Printf.sprintf "for %d <= %s <= %d" cert.sc_base cert.sc_param
        cert.sc_hi
    in
    match cert.sc_tail with
    | [] -> base
    | tail ->
        let ps = List.map fst tail in
        Printf.sprintf
          "%s (exact values tabulated at %d boundary point(s) in [%d, %d])"
          base (List.length tail)
          (List.fold_left min max_int ps)
          (List.fold_left max min_int ps)
  in
  let poly c =
    let terms =
      List.filter
        (fun v -> v <> "")
        (Array.to_list
           (Array.mapi
              (fun j v ->
                if v = 0 then ""
                else if j = 0 then string_of_int v
                else if j = 1 then Printf.sprintf "%d*q" v
                else Printf.sprintf "%d*C(q,%d)" v j)
              c))
    in
    match terms with [] -> "0" | _ -> String.concat " + " terms
  in
  let all_same =
    Array.for_all (fun c -> c = coeffs.(0)) coeffs
  in
  if m = 1 || all_same then
    Printf.sprintf "%s  where %s, %s" (poly coeffs.(0)) q_def domain
  else
    (* common higher-order part, varying intercepts *)
    let tails_same =
      Array.for_all
        (fun c ->
          let t a = if Array.length a <= 1 then [||] else Array.sub a 1 (Array.length a - 1) in
          t c = t coeffs.(0))
        coeffs
    in
    if tails_same then
      let tail =
        let c0 = Array.copy coeffs.(0) in
        if Array.length c0 > 0 then c0.(0) <- 0;
        poly (trim c0)
      in
      let intercepts =
        String.concat ", "
          (Array.to_list
             (Array.map (fun c -> string_of_int (if Array.length c > 0 then c.(0) else 0)) coeffs))
      in
      Printf.sprintf "%s + [%s][r]  where %s, %s, %s" tail intercepts q_def
        r_def domain
    else
      let shown = min m 8 in
      let rows =
        String.concat "; "
          (List.init shown (fun r -> Printf.sprintf "r=%d: %s" r (poly coeffs.(r))))
      in
      Printf.sprintf "piecewise (period %d): %s%s  where %s, %s, %s" m rows
        (if shown < m then "; ..." else "")
        q_def r_def domain
