open Loopir

type verdict =
  | Independent
  | Loop_carried
  | Line_conflict
  | Unknown of string

type backend = Banerjee | Exact | Fallback of string

type witness = {
  w_params : (string * int) list;
  w_a : (string * int) list;
  w_b : (string * int) list;
}

type evidence = {
  ev_backend : backend;
  ev_must : bool;
  ev_witness : witness option;
}

type exact_mode = [ `Auto | `On | `Off ]

let default_exact_budget = 50_000

type pair = {
  a : Array_ref.t;
  b : Array_ref.t;
  verdict : verdict;
  ev : evidence;
}

let verdict_name = function
  | Independent -> "independent"
  | Loop_carried -> "loop-carried"
  | Line_conflict -> "line-conflict"
  | Unknown _ -> "unknown"

let backend_name = function
  | Banerjee -> "banerjee"
  | Exact -> "exact"
  | Fallback m -> "banerjee (fallback: " ^ m ^ ")"

let banerjee_ev ~must = { ev_backend = Banerjee; ev_must = must; ev_witness = None }

(* ---------------------------------------------------------------- *)
(* Interval arithmetic over the iteration box                        *)
(* ---------------------------------------------------------------- *)

exception Not_analyzable of string

type interval = { lo : int; hi : int }  (* inclusive *)

(* Banerjee bounds of an affine expression over per-variable intervals. *)
let bounds ranges a =
  let c = Affine.const_part a in
  List.fold_left
    (fun (mn, mx) v ->
      let k = Affine.coeff a v in
      let r =
        match List.assoc_opt v ranges with
        | Some r -> r
        | None -> raise (Not_analyzable ("unbounded variable " ^ v))
      in
      if k >= 0 then (mn + (k * r.lo), mx + (k * r.hi))
      else (mn + (k * r.hi), mx + (k * r.lo)))
    (c, c) (Affine.vars a)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* extended gcd: egcd a b = (g, u, v) with a*u + b*v = g *)
let rec egcd a b =
  if b = 0 then (a, 1, 0)
  else
    let g, u, v = egcd b (a mod b) in
    (g, v, u - (a / b * v))

let range_of ranges v =
  match List.assoc_opt v ranges with
  | Some r -> r
  | None -> raise (Not_analyzable ("unbounded variable " ^ v))

(* The k interval with x0 <= xp + sx*k <= x1 (empty when lo > hi). *)
let k_interval ~xp ~sx ~x0 ~x1 =
  if sx > 0 then (cdiv (x0 - xp) sx, fdiv (x1 - xp) sx)
  else (cdiv (xp - x1) (-sx), fdiv (xp - x0) (-sx))

(* Can [a] take a value in [tlo, thi] over the box?  With at most two
   variables the test is exact (interval intersection, or a bounded
   linear Diophantine solve along the solution line); otherwise the
   classical sufficient-for-impossibility pair — Banerjee interval
   disjointness and GCD inadmissibility — makes [false] a must-not. *)
let feasible ranges a ~tlo ~thi =
  let c = Affine.const_part a in
  match Affine.vars a with
  | [] -> tlo <= c && c <= thi
  | [ v ] ->
      let k = Affine.coeff a v in
      let r = range_of ranges v in
      let lo, hi =
        if k > 0 then (cdiv (tlo - c) k, fdiv (thi - c) k)
        else (cdiv (c - thi) (-k), fdiv (c - tlo) (-k))
      in
      max lo r.lo <= min hi r.hi
  | [ v1; v2 ] ->
      let k1 = Affine.coeff a v1 and k2 = Affine.coeff a v2 in
      let r1 = range_of ranges v1 and r2 = range_of ranges v2 in
      let g, u, w = egcd k1 k2 in
      let g = abs g
      and u = if g < 0 then -u else u
      and w = if g < 0 then -w else w in
      let ok = ref false in
      let t = ref tlo in
      while (not !ok) && !t <= thi do
        let rhs = !t - c in
        if rhs mod g = 0 then begin
          (* particular solution of k1*x + k2*y = rhs, then walk the
             solution line x = xp + (k2/g)k, y = yp - (k1/g)k *)
          let xp = u * (rhs / g) and yp = w * (rhs / g) in
          let klo1, khi1 = k_interval ~xp ~sx:(k2 / g) ~x0:r1.lo ~x1:r1.hi in
          let klo2, khi2 =
            k_interval ~xp:yp ~sx:(-(k1 / g)) ~x0:r2.lo ~x1:r2.hi
          in
          if max klo1 klo2 <= min khi1 khi2 then ok := true
        end;
        incr t
      done;
      !ok
  | vars ->
      let bmin, bmax = bounds ranges a in
      let lo = max tlo bmin and hi = min thi bmax in
      if lo > hi then false
      else
        let g = List.fold_left (fun g v -> gcd g (Affine.coeff a v)) 0 vars in
        if g = 0 then true (* constant, already inside the window *)
        else fdiv (hi - c) g >= cdiv (lo - c) g

(* ---------------------------------------------------------------- *)
(* Building the iteration box                                        *)
(* ---------------------------------------------------------------- *)

let prime v = v ^ "'"

(* Identifiers of a bound expression, for actionable error messages:
   recursion stops at constructs that are non-affine anyway. *)
let rec expr_idents (e : Minic.Ast.expr) acc =
  match e with
  | Minic.Ast.Ident v -> if List.mem v acc then acc else v :: acc
  | Minic.Ast.Unop (_, e) -> expr_idents e acc
  | Minic.Ast.Binop (_, a, b) -> expr_idents a (expr_idents b acc)
  | _ -> acc

(* Why did a bound fail to convert?  If it mentions an identifier that is
   neither a parameter nor an enclosing loop variable, name it and say
   how to bind it; otherwise it is genuinely non-affine. *)
let bound_error ~params ~known l e =
  let unbound =
    List.filter
      (fun v -> (not (List.mem_assoc v params)) && not (known v))
      (expr_idents e [])
  in
  match unbound with
  | v :: _ ->
      Printf.sprintf
        "bound of loop %s references unbound identifier '%s' (bind it with \
         -p %s=VAL)"
        l.Loop_nest.var v v
  | [] ->
      Printf.sprintf "bound of loop %s is not affine" l.Loop_nest.var

(* Evaluate loop bounds outermost-in, each as an affine expression over
   parameters (folded to constants) and enclosing loop variables
   (interval-propagated).  Returns the per-variable value intervals plus a
   per-loop upper bound on the trip count; [None] when the nest certainly
   runs nothing. *)
let box ~params (nest : Loop_nest.t) =
  let ranges = ref [] in
  let lookup v =
    match List.assoc_opt v params with
    | Some k -> Some (Affine.const k)
    | None ->
        if List.mem_assoc v !ranges then Some (Affine.var v) else None
  in
  let trips =
    List.map
      (fun (l : Loop_nest.loop) ->
        let aff_of e =
          match Affine.of_expr lookup e with
          | Some a -> a
          | None ->
              raise
                (Not_analyzable
                   (bound_error ~params
                      ~known:(fun v -> List.mem_assoc v !ranges)
                      l e))
        in
        let lo_lo, _ = bounds !ranges (aff_of l.Loop_nest.lower) in
        let _, up_hi = bounds !ranges (aff_of l.Loop_nest.upper_excl) in
        if up_hi - 1 < lo_lo then raise Exit (* certainly empty nest *)
        else begin
          (* conservative value interval: smallest lower to largest last *)
          ranges := (l.Loop_nest.var, { lo = lo_lo; hi = up_hi - 1 }) :: !ranges;
          (* largest possible trip count *)
          max 0 ((up_hi - lo_lo + l.Loop_nest.step - 1) / l.Loop_nest.step)
        end)
      nest.Loop_nest.loops
  in
  (!ranges, trips)

(* ---------------------------------------------------------------- *)
(* Pair classification                                               *)
(* ---------------------------------------------------------------- *)

let fold_params params a =
  Affine.subst
    (fun v ->
      match List.assoc_opt v params with
      | Some k -> Some (Affine.const k)
      | None -> None)
    a

let classify ~line_bytes ~params ~ranges ~trips (nest : Loop_nest.t)
    (ra : Array_ref.t) (rb : Array_ref.t) =
  let pvar = (Loop_nest.parallel_loop nest).Loop_nest.var in
  let pstep = (Loop_nest.parallel_loop nest).Loop_nest.step in
  let ptrip = List.nth trips nest.Loop_nest.parallel_depth in
  if ptrip <= 1 then Independent (* at most one parallel iteration *)
  else begin
    let offa = fold_params params ra.Array_ref.offset in
    let offb = fold_params params rb.Array_ref.offset in
    (* the second iteration's variables, renamed *)
    let offb' =
      Affine.subst (fun v -> Some (Affine.var (prime v))) offb
    in
    let d = Affine.sub offa offb' in
    (* primed variables share the unprimed intervals *)
    let ranges2 =
      ranges @ List.map (fun (v, r) -> (prime v, r)) ranges
    in
    let dist = "+dist" in
    (* substitute pvar' = pvar +/- step*dist with dist >= 1: the two
       iterations differ at the parallel level *)
    let subst_dir sign =
      Affine.subst
        (fun v ->
          if v = prime pvar then
            Some
              (Affine.add (Affine.var pvar)
                 (Affine.scale (sign * pstep) (Affine.var dist)))
          else None)
        d
    in
    let ranges3 = (dist, { lo = 1; hi = max 1 (ptrip - 1) }) :: ranges2 in
    (* Coupling reduction: when a variable and its primed copy occur with
       opposite coefficients k*v - k*v', collapse them into a single
       difference variable over the symmetric interval.  This often drops
       the expression to <= 2 variables, where [feasible] is exact. *)
    let couple a =
      let rs = ref ranges3 in
      let a =
        List.fold_left
          (fun a (v, (r : interval)) ->
            let kv = Affine.coeff a v and kp = Affine.coeff a (prime v) in
            if kv <> 0 && kp = -kv then begin
              let dv = "+d" ^ v in
              let w = r.hi - r.lo in
              rs := (dv, { lo = -w; hi = w }) :: !rs;
              Affine.subst
                (fun u ->
                  if u = v then Some (Affine.var dv)
                  else if u = prime v then Some (Affine.const 0)
                  else None)
                a
            end
            else a)
          a ranges
      in
      (!rs, a)
    in
    let feasible_window ~tlo ~thi =
      let check sign =
        let rs, a = couple (subst_dir sign) in
        feasible rs a ~tlo ~thi
      in
      check 1 || check (-1)
    in
    let sza = ra.Array_ref.size_bytes and szb = rb.Array_ref.size_bytes in
    if feasible_window ~tlo:(-(szb - 1)) ~thi:(sza - 1) then Loop_carried
    else if
      feasible_window ~tlo:(-(line_bytes - 1)) ~thi:(line_bytes - 1)
    then Line_conflict
    else Independent
  end

(* ---------------------------------------------------------------- *)
(* Exact backend: Omega-test feasibility over the iteration polyhedron *)
(* ---------------------------------------------------------------- *)

let witness_to_string w =
  let binds l =
    String.concat ", "
      (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) l)
  in
  let core =
    binds w.w_a ^ " vs " ^ binds (List.map (fun (v, x) -> (prime v, x)) w.w_b)
  in
  match w.w_params with [] -> core | ps -> binds ps ^ ": " ^ core

exception Free_ident of string

(* The exact encoding of one nest's pair of iterations: every loop
   variable [v] with step [s] is normalized as [v = lo + s*k] with a
   fresh counter [k >= 0], so strides and lower bounds are built into
   the rows exactly.  Loops outside the parallel one are {e shared}
   between the two iterations (the brute-force ground truth compares
   two iterations of the parallel loop within one execution of the
   outer sequential loops); the parallel loop and everything inside it
   get an independent primed copy.  Loop bounds may divide by positive
   constants: [e / c] introduces an auxiliary [q] with
   [c*q <= e <= c*q + c - 1] (exact when [e] is provably non-negative,
   where C truncation and floor agree).  Identifiers bound neither by
   [params] nor by an enclosing loop become shared non-negative solver
   variables when [free_ok], so the backend can decide nests the
   interval box rejects. *)
type xbox = {
  mutable xrows : Affine.t list;
  xval_a : (string * Affine.t) list;  (* loop var -> value, iteration A *)
  xval_b : (string * Affine.t) list;  (* loop var -> value, iteration B *)
  mutable xfree : string list;  (* free identifiers, most recent first *)
  xka : string;  (* parallel counter, iteration A *)
  xkb : string;  (* parallel counter, iteration B *)
  mutable xfresh : int;
  xfree_ok : bool;
  xparams : (string * int) list;
}

let kvar v = "k:" ^ v
let kvar' v = "k:" ^ v ^ "'"

(* Counters and division quotients are the solver's own; source
   identifiers can never collide with them ([:] and [+] are not ident
   characters). *)
let xsolver_var v =
  String.length v >= 1
  && (v.[0] = '+' || (String.length v >= 2 && v.[0] = 'k' && v.[1] = ':'))

(* All solver variables here are non-negative (counters, free size
   parameters, floor quotients of non-negative forms), so non-negative
   coefficients and constant suffice. *)
let provably_nonneg a =
  Affine.const_part a >= 0 && Affine.fold_terms (fun _ k ok -> ok && k >= 0) a true

let xregister xb v =
  if not (List.mem v xb.xfree) then begin
    if not xb.xfree_ok then raise (Free_ident v);
    xb.xfree <- v :: xb.xfree;
    xb.xrows <- Affine.var v :: xb.xrows
  end

let xfreshv xb tag =
  xb.xfresh <- xb.xfresh + 1;
  Printf.sprintf "+%s%d" tag xb.xfresh

(* Compile a bound expression to an affine form over counters and free
   parameters, emitting division rows as needed. *)
let rec xcomp xb ~params env (e : Minic.Ast.expr) =
  let add r = xb.xrows <- r :: xb.xrows in
  match e with
  | Minic.Ast.Int_lit k -> Affine.const k
  | Minic.Ast.Ident v -> (
      match List.assoc_opt v params with
      | Some k -> Affine.const k
      | None -> (
          match List.assoc_opt v env with
          | Some a -> a
          | None ->
              xregister xb v;
              Affine.var v))
  | Minic.Ast.Unop (Minic.Ast.Neg, e) -> Affine.neg (xcomp xb ~params env e)
  | Minic.Ast.Binop (op, e1, e2) -> (
      match op with
      | Minic.Ast.Add ->
          Affine.add (xcomp xb ~params env e1) (xcomp xb ~params env e2)
      | Minic.Ast.Sub ->
          Affine.sub (xcomp xb ~params env e1) (xcomp xb ~params env e2)
      | Minic.Ast.Mul -> (
          match
            Affine.mul (xcomp xb ~params env e1) (xcomp xb ~params env e2)
          with
          | Some a -> a
          | None -> raise (Not_analyzable "non-affine bound"))
      | Minic.Ast.Div | Minic.Ast.Mod -> (
          let a1 = xcomp xb ~params env e1 in
          match Affine.is_const (xcomp xb ~params env e2) with
          | Some c when c > 0 -> (
              match Affine.is_const a1 with
              | Some x ->
                  (* C truncating semantics, as Expr_eval folds it *)
                  Affine.const
                    (if op = Minic.Ast.Div then x / c else x mod c)
              | None ->
                  if not (provably_nonneg a1) then
                    raise
                      (Not_analyzable
                         "division of a possibly negative bound expression")
                  else begin
                    let q = xfreshv xb "q" in
                    let qv = Affine.var q in
                    add qv;
                    add (Affine.sub a1 (Affine.scale c qv));
                    add
                      (Affine.sub
                         (Affine.add (Affine.scale c qv) (Affine.const (c - 1)))
                         a1);
                    if op = Minic.Ast.Div then qv
                    else Affine.sub a1 (Affine.scale c qv)
                  end)
          | _ -> raise (Not_analyzable "non-constant divisor"))
      | _ -> raise (Not_analyzable "non-affine bound"))
  | _ -> raise (Not_analyzable "non-affine bound")

let exact_box ~params ~free_ok (nest : Loop_nest.t) =
  let pvar = (Loop_nest.parallel_loop nest).Loop_nest.var in
  let xb =
    {
      xrows = [];
      xval_a = [];
      xval_b = [];
      xfree = [];
      xka = kvar pvar;
      xkb = kvar' pvar;
      xfresh = 0;
      xfree_ok = free_ok;
      xparams = params;
    }
  in
  let env_a = ref [] and env_b = ref [] in
  let p = nest.Loop_nest.parallel_depth in
  let xb =
    List.iteri
      (fun d (l : Loop_nest.loop) ->
        let v = l.Loop_nest.var in
        let bound env k =
          let lo = xcomp xb ~params !env l.Loop_nest.lower in
          let hi = xcomp xb ~params !env l.Loop_nest.upper_excl in
          let value =
            Affine.add lo (Affine.scale l.Loop_nest.step (Affine.var k))
          in
          xb.xrows <- Affine.var k :: xb.xrows;
          xb.xrows <-
            Affine.sub (Affine.sub hi (Affine.const 1)) value :: xb.xrows;
          value
        in
        if d < p then begin
          let value = bound env_a (kvar v) in
          env_a := (v, value) :: !env_a;
          env_b := (v, value) :: !env_b
        end
        else begin
          let va = bound env_a (kvar v) in
          env_a := (v, va) :: !env_a;
          let vb = bound env_b (kvar' v) in
          env_b := (v, vb) :: !env_b
        end)
      nest.Loop_nest.loops;
    { xb with xval_a = !env_a; xval_b = !env_b }
  in
  xb

(* A reference's byte offset over one iteration's counters.  Leftover
   variables (subscripts mentioning identifiers bound by neither
   [params] nor a loop) become shared free parameters. *)
let xoffset xb ~params env (r : Array_ref.t) =
  let a =
    Affine.subst
      (fun v -> List.assoc_opt v env)
      (fold_params params r.Array_ref.offset)
  in
  List.iter
    (fun v -> if not (xsolver_var v) then xregister xb v)
    (Affine.vars a);
  a

let xvalue m v = match List.assoc_opt v m with Some x -> x | None -> 0

let xwitness xb m =
  let f = xvalue m in
  let at env = List.rev_map (fun (v, a) -> (v, Affine.eval f a)) env in
  {
    w_params = List.rev_map (fun p -> (p, f p)) xb.xfree;
    w_a = at xb.xval_a;
    w_b = at xb.xval_b;
  }

(* Defense in depth: never emit a must-claim whose witness does not
   check out byte-for-byte. *)
let xvalidate ~line_bytes xb ~kind m offa offb sza szb =
  let f = xvalue m in
  let oa = Affine.eval f offa and ob = Affine.eval f offb in
  let byte_overlap = oa <= ob + szb - 1 && ob <= oa + sza - 1 in
  let la0 = fdiv oa line_bytes and la1 = fdiv (oa + sza - 1) line_bytes in
  let lb0 = fdiv ob line_bytes and lb1 = fdiv (ob + szb - 1) line_bytes in
  let line_share = max la0 lb0 <= min la1 lb1 in
  f xb.xka <> f xb.xkb
  &&
  match kind with
  | `Byte -> byte_overlap
  | `Line -> line_share && not byte_overlap

(* The exact decision ladder for one pair: byte-overlap feasibility in
   both parallel directions, then exact line-sharing (an existential
   line index, not a distance window).  [v0] is the Banerjee verdict to
   keep when the backend cannot run to completion. *)
let exact_classify ~line_bytes ~exact_budget xb ~region_rows
    (ra : Array_ref.t) (rb : Array_ref.t) v0 =
  let fallback msg =
    (v0, { ev_backend = Fallback msg; ev_must = false; ev_witness = None })
  in
  match
    let b = Exact.budget exact_budget in
    let offa = xoffset xb ~params:xb.xparams xb.xval_a ra in
    let offb = xoffset xb ~params:xb.xparams xb.xval_b rb in
    let sza = ra.Array_ref.size_bytes and szb = rb.Array_ref.size_bytes in
    let base = List.rev_append region_rows xb.xrows in
    let dir_pos =
      Affine.sub (Affine.sub (Affine.var xb.xkb) (Affine.var xb.xka))
        (Affine.const 1)
    and dir_neg =
      Affine.sub (Affine.sub (Affine.var xb.xka) (Affine.var xb.xkb))
        (Affine.const 1)
    in
    let solve_dirs extra =
      match Exact.solve b { Exact.eqs = []; geqs = dir_pos :: (extra @ base) } with
      | Some m -> Some m
      | None ->
          Exact.solve b { Exact.eqs = []; geqs = dir_neg :: (extra @ base) }
    in
    let overlap =
      [
        Affine.sub (Affine.add offb (Affine.const (szb - 1))) offa;
        Affine.sub (Affine.add offa (Affine.const (sza - 1))) offb;
      ]
    in
    let must = xb.xfree = [] in
    match solve_dirs overlap with
    | Some m ->
        if xvalidate ~line_bytes xb ~kind:`Byte m offa offb sza szb then
          ( Loop_carried,
            {
              ev_backend = Exact;
              ev_must = must;
              ev_witness = Some (xwitness xb m);
            } )
        else fallback "witness validation failed"
    | None -> (
        let l = Affine.var (xfreshv xb "L") in
        let x = Affine.var (xfreshv xb "x") in
        let y = Affine.var (xfreshv xb "y") in
        let line_rows =
          [
            Affine.sub x offa;
            Affine.sub (Affine.add offa (Affine.const (sza - 1))) x;
            Affine.sub y offb;
            Affine.sub (Affine.add offb (Affine.const (szb - 1))) y;
            Affine.sub x (Affine.scale line_bytes l);
            Affine.sub
              (Affine.add (Affine.scale line_bytes l)
                 (Affine.const (line_bytes - 1)))
              x;
            Affine.sub y (Affine.scale line_bytes l);
            Affine.sub
              (Affine.add (Affine.scale line_bytes l)
                 (Affine.const (line_bytes - 1)))
              y;
          ]
        in
        match solve_dirs line_rows with
        | Some m ->
            if xvalidate ~line_bytes xb ~kind:`Line m offa offb sza szb then
              ( Line_conflict,
                {
                  ev_backend = Exact;
                  ev_must = must;
                  ev_witness = Some (xwitness xb m);
                } )
            else fallback "witness validation failed"
        | None ->
            (Independent, { ev_backend = Exact; ev_must = true; ev_witness = None }))
  with
  | result -> result
  | exception Exact.Out_of_budget ->
      fallback (Printf.sprintf "budget exhausted after %d steps" exact_budget)
  | exception Not_analyzable m -> fallback m
  | exception Free_ident v -> fallback ("unbound identifier '" ^ v ^ "'")

let pairs ~line_bytes ~params ?(exact : exact_mode = `Auto)
    ?(exact_budget = default_exact_budget) (nest : Loop_nest.t) =
  let refs = Array.of_list nest.Loop_nest.refs in
  let n = Array.length refs in
  let interesting i j =
    let a = refs.(i) and b = refs.(j) in
    a.Array_ref.base = b.Array_ref.base
    && (Array_ref.is_write a || Array_ref.is_write b)
  in
  let make verdict_of =
    let acc = ref [] in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        if interesting i j then begin
          let verdict, ev = verdict_of refs.(i) refs.(j) in
          acc := { a = refs.(i); b = refs.(j); verdict; ev } :: !acc
        end
      done
    done;
    List.rev !acc
  in
  let concrete =
    match box ~params nest with
    | ranges, trips -> `Box (ranges, trips)
    | exception Exit -> `Empty
    | exception Not_analyzable m -> `Fail m
  in
  let xb =
    lazy
      (if exact = `Off then None
       else
         match exact_box ~params ~free_ok:true nest with
         | xb -> Some xb
         | exception (Not_analyzable _ | Free_ident _) -> None)
  in
  make (fun a b ->
      let banerjee =
        match concrete with
        | `Empty -> (Independent, banerjee_ev ~must:true)
        | `Fail m -> (Unknown m, banerjee_ev ~must:false)
        | `Box (ranges, trips) -> (
            match classify ~line_bytes ~params ~ranges ~trips nest a b with
            | Independent -> (Independent, banerjee_ev ~must:true)
            | v -> (v, banerjee_ev ~must:false)
            | exception Not_analyzable m ->
                (Unknown m, banerjee_ev ~must:false))
      in
      match banerjee with
      | Independent, _ -> banerjee
      | v0, _ -> (
          match Lazy.force xb with
          | None -> banerjee
          | Some xb ->
              exact_classify ~line_bytes ~exact_budget xb ~region_rows:[] a b
                v0))

(* ---------------------------------------------------------------- *)
(* Parametric (symbolic) analysis                                    *)
(* ---------------------------------------------------------------- *)

type spair = {
  sa : Array_ref.t;
  sb : Array_ref.t;
  scases : (verdict * evidence) Symbolic.cases;
}

(* A loop variable's value interval with affine-in-parameters endpoints. *)
type sival = { slo : Affine.t; shi : Affine.t }

(* Range of a mixed affine form (loop variables + parameters) over the
   iteration box, as a pair of affine-in-parameters endpoints: loop
   variables are interval-propagated through their symbolic ranges,
   parameter terms pass through. *)
let sbounds sranges a =
  let is_loop v = List.mem_assoc v sranges in
  let ppart, lpart = Affine.partition (fun v -> not (is_loop v)) a in
  Affine.fold_terms
    (fun v k (lo, hi) ->
      let r = List.assoc v sranges in
      if k >= 0 then
        ( Affine.add lo (Affine.scale k r.slo),
          Affine.add hi (Affine.scale k r.shi) )
      else
        ( Affine.add lo (Affine.scale k r.shi),
          Affine.add hi (Affine.scale k r.slo) ))
    lpart (ppart, ppart)

(* The symbolic iteration box: like [box], but identifiers that are
   neither parameters nor enclosing loop variables become free symbolic
   parameters instead of errors.  Returns the per-loop-variable symbolic
   value intervals (outermost first in reverse, as [box]) and the free
   parameters encountered, in order of first appearance. *)
let sbox ~params (nest : Loop_nest.t) =
  let sranges = ref [] in
  let free = ref [] in
  let lookup v =
    match List.assoc_opt v params with
    | Some k -> Some (Affine.const k)
    | None ->
        if List.mem_assoc v !sranges then Some (Affine.var v)
        else begin
          if not (List.mem v !free) then free := v :: !free;
          Some (Affine.var v)
        end
  in
  List.iter
    (fun (l : Loop_nest.loop) ->
      let aff_of e =
        match Affine.of_expr lookup e with
        | Some a -> a
        | None ->
            raise
              (Not_analyzable
                 (Printf.sprintf "bound of loop %s is not affine"
                    l.Loop_nest.var))
      in
      let lo_lo, _ = sbounds !sranges (aff_of l.Loop_nest.lower) in
      let _, up_hi = sbounds !sranges (aff_of l.Loop_nest.upper_excl) in
      sranges :=
        (l.Loop_nest.var, { slo = lo_lo; shi = Affine.sub up_hi (Affine.const 1) })
        :: !sranges)
    nest.Loop_nest.loops;
  (!sranges, List.rev !free)

(* Can the mixed form [a] (over iteration-space variables whose ranges
   have affine-in-parameters endpoints) take a value in [tlo, thi]?  The
   answer is a [bool Symbolic.cases] tree over the free parameters.

   - all ranges concrete: delegate to the concrete [feasible] (exact for
     <= 2 variables);
   - symbolic ranges: pick one symbolic variable (the parallel distance
     when it qualifies), over-approximate every other symbolic range by
     its hull under the parameter context, and exploit that feasibility
     is monotone in the chosen variable's extent: a binary search with
     concrete probes finds the threshold extent, and the answer is a
     single affine atom.  [false] remains a must-result (the hulls only
     grow the feasible set) and with a single free range the atom is
     exact;
   - when a hull is unbounded or a range's shape is unsupported:
     symbolic Banerjee interval conditions plus the concrete GCD test
     over the whole window (may-results, like the concrete fallback for
     > 2 variables). *)
let sfeasible ctx rs a ~tlo ~thi =
  let c = Affine.const_part a in
  match Affine.vars a with
  | [] -> Symbolic.leaf (tlo <= c && c <= thi)
  | vars -> (
      let rng v =
        match List.assoc_opt v rs with
        | Some r -> r
        | None -> raise (Not_analyzable ("unbounded variable " ^ v))
      in
      let conc v =
        let r = rng v in
        match (Affine.is_const r.slo, Affine.is_const r.shi) with
        | Some lo, Some hi -> Some { lo; hi }
        | _ -> None
      in
      (* hull of a symbolic range under the parameter context *)
      let hull v =
        let r = rng v in
        match (fst (Symbolic.range ctx r.slo), snd (Symbolic.range ctx r.shi))
        with
        | Some lo, Some hi -> Some { lo; hi }
        | _ -> None
      in
      let sym_vars = List.filter (fun v -> conc v = None) vars in
      match sym_vars with
      | [] ->
          let cranges = List.map (fun v -> (v, Option.get (conc v))) vars in
          Symbolic.leaf (feasible cranges a ~tlo ~thi)
      | _ -> (
          (* probe the parallel-distance variable when symbolic (it
             carries the verdict's region structure), else the first *)
          let vs =
            if List.mem "+dist" sym_vars then "+dist" else List.hd sym_vars
          in
          let r = rng vs in
          let ks = Affine.coeff a vs in
          let others = List.filter (fun v -> v <> vs) vars in
          let cothers =
            List.map
              (fun v ->
                match conc v with
                | Some i -> (v, i)
                | None -> (
                    match hull v with
                    | Some i -> (v, i)
                    | None -> raise Exit (* unbounded hull: Banerjee *)))
              others
          in
          (* any solution has |vs| below this: the target window, the
             constant and the other variables' reach bound |ks * vs| *)
          let dmax =
            let sum =
              List.fold_left
                (fun s (v, (r : interval)) ->
                  s + (abs (Affine.coeff a v) * max (abs r.lo) (abs r.hi)))
                0 cothers
            in
            ((sum + abs c + max (abs tlo) (abs thi)) / abs ks) + 2
          in
          let probe lo hi =
            feasible ((vs, { lo; hi }) :: cothers) a ~tlo ~thi
          in
          (* binary search for the smallest saturating extent; [mk x]
             builds the probe interval of extent [x], [atom x] the
             condition "the symbolic extent reaches x" *)
          let search x0 mk atom =
            let xmax = max x0 dmax in
            if not (let l, h = mk xmax in probe l h) then Symbolic.leaf false
            else begin
              let lo = ref x0 and hi = ref xmax in
              while !lo < !hi do
                let mid = !lo + ((!hi - !lo) / 2) in
                if let l, h = mk mid in probe l h then hi := mid
                else lo := mid + 1
              done;
              Symbolic.conj [ atom !lo ]
            end
          in
          match (Affine.is_const r.slo, Affine.is_const r.shi) with
          | Some lo_c, None ->
              (* [lo_c, shi]: monotone in shi *)
              search lo_c
                (fun w -> (lo_c, w))
                (fun w -> Affine.sub r.shi (Affine.const w))
          | None, Some hi_c ->
              (* [slo, hi_c]: monotone as slo decreases *)
              search (-hi_c)
                (fun w -> (-w, hi_c))
                (fun w -> Affine.sub (Affine.const w) r.slo)
          | None, None when Affine.equal r.slo (Affine.neg r.shi) ->
              (* symmetric difference interval [-w, w]: monotone in w *)
              search 0
                (fun w -> (-w, w))
                (fun w -> Affine.sub r.shi (Affine.const w))
          | _ ->
              (* asymmetric fully-symbolic range: Banerjee below *)
              raise Exit))

let sfeasible ctx rs a ~tlo ~thi =
  try sfeasible ctx rs a ~tlo ~thi
  with Exit ->
    (* symbolic Banerjee bounds + the concrete GCD test over the window *)
    let c = Affine.const_part a in
    let bmin, bmax =
      List.fold_left
        (fun (lo, hi) v ->
          let k = Affine.coeff a v in
          let r =
            match List.assoc_opt v rs with
            | Some r -> r
            | None -> raise (Not_analyzable ("unbounded variable " ^ v))
          in
          if k >= 0 then
            ( Affine.add lo (Affine.scale k r.slo),
              Affine.add hi (Affine.scale k r.shi) )
          else
            ( Affine.add lo (Affine.scale k r.shi),
              Affine.add hi (Affine.scale k r.slo) ))
        (Affine.const c, Affine.const c)
        (Affine.vars a)
    in
    let g =
      List.fold_left (fun g v -> gcd g (Affine.coeff a v)) 0 (Affine.vars a)
    in
    if g <> 0 && fdiv (thi - c) g < cdiv (tlo - c) g then Symbolic.leaf false
    else
      Symbolic.conj
        [
          Affine.sub (Affine.const thi) bmin; Affine.sub bmax (Affine.const tlo);
        ]

let classify_sym ~line_bytes ~params ~sranges ~ctx (nest : Loop_nest.t)
    (ra : Array_ref.t) (rb : Array_ref.t) =
  let pvar = (Loop_nest.parallel_loop nest).Loop_nest.var in
  let pstep = (Loop_nest.parallel_loop nest).Loop_nest.step in
  let spr = List.assoc pvar sranges in
  (* parallel iterations apart; [shi - slo] equals ptrip - 1 for unit
     steps and over-approximates it otherwise (which can only weaken
     may-verdicts, never [Independent]) *)
  let width = Affine.sub spr.shi spr.slo in
  let offa = fold_params params ra.Array_ref.offset in
  let offb = fold_params params rb.Array_ref.offset in
  let offb' = Affine.subst (fun v -> Some (Affine.var (prime v))) offb in
  let d = Affine.sub offa offb' in
  let sranges2 = sranges @ List.map (fun (v, r) -> (prime v, r)) sranges in
  let dist = "+dist" in
  let subst_dir sign =
    Affine.subst
      (fun v ->
        if v = prime pvar then
          Some
            (Affine.add (Affine.var pvar)
               (Affine.scale (sign * pstep) (Affine.var dist)))
        else None)
      d
  in
  let sranges3 = (dist, { slo = Affine.const 1; shi = width }) :: sranges2 in
  let couple a =
    let rs = ref sranges3 in
    let a =
      List.fold_left
        (fun a (v, (r : sival)) ->
          let kv = Affine.coeff a v and kp = Affine.coeff a (prime v) in
          if kv <> 0 && kp = -kv then begin
            let dv = "+d" ^ v in
            let w = Affine.sub r.shi r.slo in
            rs := (dv, { slo = Affine.neg w; shi = w }) :: !rs;
            Affine.subst
              (fun u ->
                if u = v then Some (Affine.var dv)
                else if u = prime v then Some (Affine.const 0)
                else None)
              a
          end
          else a)
        a sranges
    in
    (!rs, a)
  in
  let window ~tlo ~thi =
    let check sign =
      let rs, a = couple (subst_dir sign) in
      sfeasible ctx rs a ~tlo ~thi
    in
    Symbolic.cor (check 1) (check (-1))
  in
  let sza = ra.Array_ref.size_bytes and szb = rb.Array_ref.size_bytes in
  let race = window ~tlo:(-(szb - 1)) ~thi:(sza - 1) in
  let tree =
    Symbolic.bind race (function
      | true -> Symbolic.leaf Loop_carried
      | false ->
          Symbolic.bind
            (window ~tlo:(-(line_bytes - 1)) ~thi:(line_bytes - 1))
            (function
              | true -> Symbolic.leaf Line_conflict
              | false -> Symbolic.leaf Independent))
  in
  let tree =
    (* the symbolic counterpart of [classify]'s [ptrip <= 1] shortcut: a
       second parallel iteration exists only when [slo + pstep <= shi].
       Below that threshold the distance range is empty, but the
       per-atom Banerjee conditions cannot see that (each endpoint
       inequality can hold even when the interval itself is empty), so
       without the guard the tree reports conflicts for empty and
       single-iteration loops.  (Found by fsfuzz at [n = 0] and, with
       [i += 3], at [n = 2].) *)
    Symbolic.If
      (Affine.sub width (Affine.const pstep), tree, Symbolic.leaf Independent)
  in
  Symbolic.simplify ctx tree

(* Identifiers in loop bounds that are bound neither by [params] nor by
   an enclosing loop: the nest is parametric exactly when this is
   non-empty. *)
let free_params ~params (nest : Loop_nest.t) =
  match sbox ~params nest with
  | _, free -> free
  | exception Not_analyzable _ ->
      (* bounds the symbolic box cannot express (e.g. [n / 2]): the
         unbound identifiers are still what [-p] would bind, and the
         exact backend can often still decide such nests, so report
         them instead of silently going concrete *)
      let loop_vars =
        List.map (fun (l : Loop_nest.loop) -> l.Loop_nest.var)
          nest.Loop_nest.loops
      in
      let acc = ref [] in
      List.iter
        (fun (l : Loop_nest.loop) ->
          List.iter
            (fun v ->
              if
                (not (List.mem_assoc v params))
                && (not (List.mem v loop_vars))
                && not (List.mem v !acc)
              then acc := v :: !acc)
            (List.rev (expr_idents l.Loop_nest.lower [])
            @ List.rev (expr_idents l.Loop_nest.upper_excl [])))
        nest.Loop_nest.loops;
      List.rev !acc

(* Rows a parameter context contributes to an exact system: each
   declared bound becomes an inequality over the parameter. *)
let ctx_rows ctx =
  List.concat_map
    (fun p ->
      match Symbolic.bounds_of ctx p with
      | None -> []
      | Some (lo, hi) ->
          (match lo with
          | Some lo -> [ Affine.sub (Affine.var p) (Affine.const lo) ]
          | None -> [])
          @
          (match hi with
          | Some hi -> [ Affine.sub (Affine.const hi) (Affine.var p) ]
          | None -> []))
    (Symbolic.params ctx)

(* Region-wise exact refinement of a symbolic verdict tree: under every
   satisfiable path, the path atoms plus the context bounds constrain
   the free parameters, and the exact backend re-decides the leaf.  An
   unsatisfiable region over the whole path upgrades the leaf all the
   way to [Independent] (a must for every parameter value in the
   region); a satisfiable one yields a witness with explicit parameter
   values (realizable, not universal, so [ev_must] stays false). *)
let refine_sym ~line_bytes ~exact_budget ~ctx xb ra rb tree =
  let base_rows = ctx_rows ctx in
  let rec go conds tree =
    match tree with
    | Symbolic.If (c, y, n) ->
        Symbolic.If
          (c, go (c :: conds) y, go (Symbolic.cond_not c :: conds) n)
    | Symbolic.Leaf Independent ->
        Symbolic.Leaf (Independent, banerjee_ev ~must:true)
    | Symbolic.Leaf v0 ->
        Symbolic.Leaf
          (exact_classify ~line_bytes ~exact_budget xb
             ~region_rows:(conds @ base_rows) ra rb v0)
  in
  go [] tree

let pairs_sym ~line_bytes ~params ?(exact : exact_mode = `Auto)
    ?(exact_budget = default_exact_budget) ?extent_of (nest : Loop_nest.t) =
  let refs = Array.of_list nest.Loop_nest.refs in
  let n = Array.length refs in
  let interesting i j =
    let a = refs.(i) and b = refs.(j) in
    a.Array_ref.base = b.Array_ref.base
    && (Array_ref.is_write a || Array_ref.is_write b)
  in
  let make verdict_of =
    let acc = ref [] in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        if interesting i j then
          acc :=
            { sa = refs.(i); sb = refs.(j); scases = verdict_of refs.(i) refs.(j) }
            :: !acc
      done
    done;
    List.rev !acc
  in
  let mk_xb () =
    if exact = `Off then None
    else
      match exact_box ~params ~free_ok:true nest with
      | xb -> Some xb
      | exception (Not_analyzable _ | Free_ident _) -> None
  in
  let plain m = Symbolic.map m (fun v -> (v, banerjee_ev ~must:(v = Independent))) in
  match sbox ~params nest with
  | exception Not_analyzable m -> (
      (* the symbolic box cannot express the bounds; the exact backend
         may still decide the nest with the unbound identifiers as free
         non-negative parameters *)
      match mk_xb () with
      | None ->
          ( make (fun _ _ -> Symbolic.leaf (Unknown m, banerjee_ev ~must:false)),
            Symbolic.empty,
            [] )
      | Some xb ->
          let ps =
            make (fun a b ->
                Symbolic.Leaf
                  (exact_classify ~line_bytes ~exact_budget xb ~region_rows:[]
                     a b (Unknown m)))
          in
          let free = List.rev xb.xfree in
          let ctx0 =
            List.fold_left
              (fun c p -> Symbolic.declare c p ~lo:(Some 0) ~hi:None)
              Symbolic.empty free
          in
          (ps, ctx0, free))
  | sranges, free ->
      (* free size-like parameters are assumed non-negative *)
      let ctx0 =
        List.fold_left
          (fun c p -> Symbolic.declare c p ~lo:(Some 0) ~hi:None)
          Symbolic.empty free
      in
      (* in-bounds refinement: a subscript that stays inside its array's
         declared extent for every executed iteration bounds the free
         parameters (out-of-bounds executions are undefined anyway) *)
      let ctx =
        match extent_of with
        | None -> ctx0
        | Some ext ->
            List.fold_left
              (fun ctx (r : Array_ref.t) ->
                match ext r.Array_ref.base with
                | None -> ctx
                | Some size ->
                    let a = fold_params params r.Array_ref.offset in
                    let lo, hi = sbounds sranges a in
                    let ctx = Symbolic.assume ctx lo in
                    Symbolic.assume ctx
                      (Affine.sub
                         (Affine.const (size - r.Array_ref.size_bytes))
                         hi))
              ctx0 nest.Loop_nest.refs
      in
      (* a loop certainly empty for every parameter value: no iterations *)
      let certainly_empty =
        List.exists
          (fun (_, (r : sival)) ->
            Symbolic.decide ctx (Affine.sub r.shi r.slo) = `False)
          sranges
      in
      if certainly_empty then
        ( make (fun _ _ -> Symbolic.leaf (Independent, banerjee_ev ~must:true)),
          ctx,
          free )
      else
        let xb = lazy (mk_xb ()) in
        ( make (fun a b ->
              let tree =
                try classify_sym ~line_bytes ~params ~sranges ~ctx nest a b
                with Not_analyzable m -> Symbolic.leaf (Unknown m)
              in
              match Lazy.force xb with
              | None -> plain tree
              | Some xb ->
                  Symbolic.simplify
                    ~equal:(fun (v1, _) (v2, _) -> v1 = v2)
                    ctx
                    (refine_sym ~line_bytes ~exact_budget ~ctx xb a b tree)),
          ctx,
          free )
