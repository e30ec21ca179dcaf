exception Runtime_error of string

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type sink = {
  mem_access : tid:int -> addr:int -> size:int -> write:bool -> unit;
  cpu : tid:int -> float -> unit;
  region_begin : threads:int -> unit;
  region_end : chunks_per_thread:int -> unit;
}

let null_sink =
  {
    mem_access = (fun ~tid:_ ~addr:_ ~size:_ ~write:_ -> ());
    cpu = (fun ~tid:_ _ -> ());
    region_begin = (fun ~threads:_ -> ());
    region_end = (fun ~chunks_per_thread:_ -> ());
  }

(* One activation of a compiled function.  [ints] holds the int locals,
   loop indices included; [flts] the float locals, then the float
   registers: one per float constant and one per float expression node.
   A float node writes its result into its register instead of returning
   it, because a float returned from a closure is boxed. *)
type frame = { ints : int array; flts : floatarray }

type t = {
  checked : Minic.Typecheck.checked;
  layout : Loopir.Layout.t;
  mem : Mem.t;
  threads : int;
  chunk_override : int option;
  sched_override : (Ompsched.Dispatch.kind * int) option;
  window : int;
  sink : sink;
  compiled : (string, compiled_func) Hashtbl.t;
  loop_iter_cost : float;
  mutable steals : int;
}

(* [flts0] is a fresh frame's [flts]: zeros, with the constant registers
   filled in *)
and compiled_func = {
  nints : int;
  flts0 : floatarray;
  body : int -> frame -> unit;
}

let create ?(threads = 1) ?chunk_override ?sched_override
    ?(interleave_window = 4) ?(sink = null_sink) checked =
  if threads < 1 then invalid_arg "Interp.create: threads < 1";
  if interleave_window < 1 then invalid_arg "Interp.create: window < 1";
  let layout = Loopir.Layout.make checked in
  {
    checked;
    layout;
    mem = Mem.create (Loopir.Layout.total_bytes layout);
    threads;
    chunk_override;
    sched_override;
    window = interleave_window;
    sink;
    compiled = Hashtbl.create 8;
    loop_iter_cost =
      float_of_int Ompsched.Overhead.default.Ompsched.Overhead.loop_per_iter;
    steals = 0;
  }

let steals t = t.steals

let layout t = t.layout
let memory t = t.mem
let structs t = t.checked.Minic.Typecheck.structs

let global_type t name =
  List.assoc_opt name t.checked.Minic.Typecheck.global_types

(* ---------------------------------------------------------------- *)
(* Compilation                                                        *)
(* ---------------------------------------------------------------- *)

(* where a local lives: [ints.(i)] or [flts.(i)] *)
type slot = Islot of int | Fslot of int

type ctx = {
  rt : t;
  mutable locals : (string * (Minic.Ast.ctype * slot)) list;
  mutable nints : int;
  mutable nflts : int;  (* float locals and registers handed out *)
  mutable consts : (int * float) list;  (* constant registers *)
}

let local ctx name = List.assoc_opt name ctx.locals
let slot_of ctx name = Option.map snd (local ctx name)
let slot_type ctx name = Option.map fst (local ctx name)

let new_reg ctx =
  let r = ctx.nflts in
  ctx.nflts <- r + 1;
  r

let add_slot ctx name ty =
  if local ctx name = None then begin
    let slot =
      if Value.is_float_type ty then Fslot (new_reg ctx)
      else begin
        let s = ctx.nints in
        ctx.nints <- s + 1;
        Islot s
      end
    in
    ctx.locals <- ctx.locals @ [ (name, (ty, slot)) ]
  end

let const_reg ctx f =
  let r = new_reg ctx in
  ctx.consts <- (r, f) :: ctx.consts;
  r

(* An int expression: a constant, an int local, or code returning the
   value.  A float expression: the register that holds its value once
   [code], if any, has run. *)
type iexp = Ik of int | Ir of int | Ic of (int -> frame -> int)
type fexp = { r : int; code : (int -> frame -> unit) option }

let icode = function
  | Ik k -> fun _ _ -> k
  | Ir s -> fun _ fr -> fr.ints.(s)
  | Ic c -> c

let[@inline] fget fr r = Float.Array.get fr.flts r
let[@inline] fset fr r v = Float.Array.set fr.flts r v

let run = function None -> fun _ _ -> () | Some c -> c

let[@inline] farith op (x : float) y =
  match op with
  | Minic.Ast.Add -> x +. y
  | Minic.Ast.Sub -> x -. y
  | Minic.Ast.Mul -> x *. y
  | Minic.Ast.Div -> x /. y
  | _ -> Float.rem x y

(* Div and Mod raise Division_by_zero on a zero divisor *)
let[@inline] iarith op (x : int) y =
  match op with
  | Minic.Ast.Add -> x + y
  | Minic.Ast.Sub -> x - y
  | Minic.Ast.Mul -> x * y
  | Minic.Ast.Div -> x / y
  | _ -> x mod y

let[@inline] icmp op (x : int) y =
  match op with
  | Minic.Ast.Lt -> x < y
  | Minic.Ast.Le -> x <= y
  | Minic.Ast.Gt -> x > y
  | Minic.Ast.Ge -> x >= y
  | Minic.Ast.Eq -> x = y
  | _ -> x <> y

(* IEEE comparison, as compiled C code compares *)
let[@inline] fcmp op (x : float) y =
  match op with
  | Minic.Ast.Lt -> x < y
  | Minic.Ast.Le -> x <= y
  | Minic.Ast.Gt -> x > y
  | Minic.Ast.Ge -> x >= y
  | Minic.Ast.Eq -> x = y
  | _ -> x <> y

(* [Value.binop]'s comparison of promoted floats: [compare], under which
   a NaN equals itself and sits below every other float *)
let[@inline] fcmp_total op x y =
  let c = Float.compare x y in
  match op with
  | Minic.Ast.Lt -> c < 0
  | Minic.Ast.Le -> c <= 0
  | Minic.Ast.Gt -> c > 0
  | Minic.Ast.Ge -> c >= 0
  | Minic.Ast.Eq -> c = 0
  | _ -> c <> 0

type builtin1 = Sin | Cos | Tan | Sqrt | Fabs | Exp | Log
type builtin2 = Pow | Fmin | Fmax

let builtin1 = function
  | "sin" -> Some Sin
  | "cos" -> Some Cos
  | "tan" -> Some Tan
  | "sqrt" -> Some Sqrt
  | "fabs" -> Some Fabs
  | "exp" -> Some Exp
  | "log" -> Some Log
  | _ -> None

let builtin2 = function
  | "pow" -> Some Pow
  | "fmin" -> Some Fmin
  | "fmax" -> Some Fmax
  | _ -> None

let[@inline] apply1 f x =
  match f with
  | Sin -> sin x
  | Cos -> cos x
  | Tan -> tan x
  | Sqrt -> sqrt x
  | Fabs -> Float.abs x
  | Exp -> exp x
  | Log -> log x

let[@inline] apply2 f x y =
  match f with
  | Pow -> Float.pow x y
  | Fmin -> Float.min x y
  | Fmax -> Float.max x y

(* static type of an access path *)
let rec path_type ctx e : Minic.Ast.ctype option =
  match e with
  | Minic.Ast.Ident v -> global_type ctx.rt v
  | Minic.Ast.Index (p, _) -> (
      match path_type ctx p with
      | Some (Minic.Ast.Tarray (elem, _)) -> Some elem
      | _ -> None)
  | Minic.Ast.Field (p, f) -> (
      match path_type ctx p with
      | Some (Minic.Ast.Tstruct s) ->
          Some (Minic.Ctypes.field_type (structs ctx.rt) s f)
      | _ -> None)
  | _ -> None

(* whether an expression has a float value: locals shadow num_threads and
   globals, arithmetic promotes, comparisons and logic yield ints, every
   builtin returns a double *)
let rec expr_is_float ctx e =
  match e with
  | Minic.Ast.Int_lit _ -> false
  | Minic.Ast.Float_lit _ -> true
  | Minic.Ast.Ident name -> (
      match slot_type ctx name with
      | Some ty -> Value.is_float_type ty
      | None ->
          if name = "num_threads" then false
          else (
            match global_type ctx.rt name with
            | Some ty -> Value.is_float_type ty
            | None -> false))
  | Minic.Ast.Binop
      ((Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul | Minic.Ast.Div
       | Minic.Ast.Mod), a, b) ->
      expr_is_float ctx a || expr_is_float ctx b
  | Minic.Ast.Binop (_, _, _) -> false
  | Minic.Ast.Unop (Minic.Ast.Neg, a) -> expr_is_float ctx a
  | Minic.Ast.Unop (Minic.Ast.Not, _) -> false
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx e with
      | Some ty -> Value.is_float_type ty
      | None -> false)
  | Minic.Ast.Call (_, _) -> true

(* ---- affine subscripts ----------------------------------------------
   [k + Σ coef × ints.(slot)]: a subscript built from int locals,
   constants and num_threads with +, -, unary - and multiplication by a
   constant.  63-bit int arithmetic is a ring, so the normal form
   computes exactly what the expression tree computes. *)

type affine = { k : int; terms : (int * int) list }

let aff_scale c a =
  {
    k = c * a.k;
    terms =
      List.filter_map
        (fun (s, x) -> if c * x = 0 then None else Some (s, c * x))
        a.terms;
  }

let aff_add a b =
  let terms =
    List.fold_left
      (fun acc (s, c) ->
        match List.assoc_opt s acc with
        | Some c0 -> (s, c0 + c) :: List.remove_assoc s acc
        | None -> acc @ [ (s, c) ])
      a.terms b.terms
  in
  { k = a.k + b.k; terms = List.filter (fun (_, c) -> c <> 0) terms }

let rec affine ctx e =
  let both a b f =
    match (affine ctx a, affine ctx b) with
    | Some x, Some y -> f x y
    | _ -> None
  in
  match e with
  | Minic.Ast.Int_lit n -> Some { k = n; terms = [] }
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some (Islot s) -> Some { k = 0; terms = [ (s, 1) ] }
      | Some (Fslot _) -> None
      | None ->
          if name = "num_threads" then Some { k = ctx.rt.threads; terms = [] }
          else None)
  | Minic.Ast.Binop (Minic.Ast.Add, a, b) ->
      both a b (fun x y -> Some (aff_add x y))
  | Minic.Ast.Binop (Minic.Ast.Sub, a, b) ->
      both a b (fun x y -> Some (aff_add x (aff_scale (-1) y)))
  | Minic.Ast.Binop (Minic.Ast.Mul, a, b) ->
      both a b (fun x y ->
          if x.terms = [] then Some (aff_scale x.k y)
          else if y.terms = [] then Some (aff_scale y.k x)
          else None)
  | Minic.Ast.Unop (Minic.Ast.Neg, a) ->
      Option.map (aff_scale (-1)) (affine ctx a)
  | _ -> None

(* one bounds-checked subscript [sk + c × ints.(s)] of an affine
   reference *)
type sub = {
  sk : int;
  s : int;
  c : int;
  extent : int;
  esz : int;
  repr : string;
}

let[@inline never] oob i n repr =
  err "index %d out of bounds [0,%d) in %s" i n repr

(* An address: fixed, affine with one or two subscripts of one int local
   each (evaluated inline by [address], no closure call), or one closure
   per subscript ([Nodes], which may read memory).  Subscripts are
   checked outermost first. *)
type addr =
  | Fixed of int
  | Aff1 of {
      base : int;
      k : int;
      s : int;
      c : int;
      n : int;
      esz : int;
      repr : string;
    }
  | Aff2 of {
      base : int;
      k1 : int;
      s1 : int;
      c1 : int;
      n1 : int;
      e1 : int;
      r1 : string;
      k2 : int;
      s2 : int;
      c2 : int;
      n2 : int;
      e2 : int;
      r2 : string;
    }
  | Nodes of (int -> frame -> int)

let pure = function Nodes _ -> false | Fixed _ | Aff1 _ | Aff2 _ -> true

let[@inline] address tid fr = function
  | Fixed b -> b
  | Aff1 a ->
      let i = a.k + (a.c * fr.ints.(a.s)) in
      if i < 0 || i >= a.n then oob i a.n a.repr;
      a.base + (i * a.esz)
  | Aff2 a ->
      let i1 = a.k1 + (a.c1 * fr.ints.(a.s1)) in
      if i1 < 0 || i1 >= a.n1 then oob i1 a.n1 a.r1;
      let i2 = a.k2 + (a.c2 * fr.ints.(a.s2)) in
      if i2 < 0 || i2 >= a.n2 then oob i2 a.n2 a.r2;
      a.base + (i1 * a.e1) + (i2 * a.e2)
  | Nodes c -> c tid fr

(* ---- access paths ----------------------------------------------------
   A path is a global followed by subscripts and fields.  Subscripts are
   checked outermost first: in [A[i][j]], [j] before [i].  A path with at
   most two subscripts, each a constant multiple of one int local plus a
   constant, computes its address inside the access; any other path
   compiles to a closure per subscript, which evaluates and checks its
   subscript (loads included) before the inner path, so the sink sees
   the same events in the same order. *)

type step =
  | Sub of Minic.Ast.expr * int * int * string
      (** subscript, extent, element size, the subscripted reference *)
  | Off of int

(* base address, type and steps, outermost step first *)
let rec flatten ctx e =
  match e with
  | Minic.Ast.Ident v -> (
      match global_type ctx.rt v with
      | Some ty -> (Loopir.Layout.addr_of ctx.rt.layout v, ty, [])
      | None -> err "%s is not a global (locals have no address)" v)
  | Minic.Ast.Index (p, idx) -> (
      let base, ty, steps = flatten ctx p in
      match ty with
      | Minic.Ast.Tarray (elem, n) ->
          let esz = Minic.Ctypes.sizeof (structs ctx.rt) elem in
          (base, elem, Sub (idx, n, esz, Minic.Pretty.expr_to_string e) :: steps)
      | _ -> err "subscript of non-array %s" (Minic.Pretty.expr_to_string p))
  | Minic.Ast.Field (p, f) -> (
      let base, ty, steps = flatten ctx p in
      match ty with
      | Minic.Ast.Tstruct s ->
          let off = Minic.Ctypes.field_offset (structs ctx.rt) s f in
          (base, Minic.Ctypes.field_type (structs ctx.rt) s f, Off off :: steps)
      | _ -> err "field of non-struct %s" (Minic.Pretty.expr_to_string p))
  | _ -> err "not an access path: %s" (Minic.Pretty.expr_to_string e)

(* the affine form of a path: its constant part and its variable
   subscripts, outermost first; None when a subscript is not affine,
   spans more than one int local, or is a constant out of bounds *)
let affine_path ctx base steps =
  List.fold_right
    (fun step acc ->
      match (acc, step) with
      | None, _ -> None
      | Some (b, subs), Off off -> Some (b + off, subs)
      | Some (b, subs), Sub (idx, n, esz, repr) -> (
          match affine ctx idx with
          | Some { k; terms = [] } when k >= 0 && k < n ->
              Some (b + (k * esz), subs)
          | Some { k; terms = [ (s, c) ] } ->
              Some (b, { sk = k; s; c; extent = n; esz; repr } :: subs)
          | _ -> None))
    steps
    (Some (base, []))

let rec compile_addr ctx e : Minic.Ast.ctype * addr =
  let base, ty, steps = flatten ctx e in
  match affine_path ctx base steps with
  | Some (base, []) -> (ty, Fixed base)
  | Some (base, [ { sk = k; s; c; extent = n; esz; repr } ]) ->
      (ty, Aff1 { base; k; s; c; n; esz; repr })
  | Some
      ( base,
        [
          { sk = k1; s = s1; c = c1; extent = n1; esz = e1; repr = r1 };
          { sk = k2; s = s2; c = c2; extent = n2; esz = e2; repr = r2 };
        ] ) ->
      (ty, Aff2 { base; k1; s1; c1; n1; e1; r1; k2; s2; c2; n2; e2; r2 })
  | Some _ | None ->
      let rec nodes = function
        | [] -> fun _ _ -> base
        | Off off :: inner ->
            let c = nodes inner in
            fun tid fr -> c tid fr + off
        | Sub (idx, n, esz, repr) :: inner ->
            let c = nodes inner in
            let iv = icode (compile_to_int ctx idx) in
            fun tid fr ->
              let i = iv tid fr in
              if i < 0 || i >= n then oob i n repr;
              c tid fr + (i * esz)
      in
      (ty, Nodes (nodes steps))

(* ---- expressions -------------------------------------------------------
   Operands are evaluated right to left.  [~gen] selects the generic
   order, which the sink contract keeps for a statement expression, a
   float right-hand side stored into an int location or compounded into
   an int local, an int right-hand side assigned to a float local, and a
   float expression where an int is expected (an int declaration's
   initializer, a loop's start, step or bound): there a two-argument
   builtin evaluates its arguments left to right, an int division
   evaluates both operands before it tests the divisor, and float
   comparisons follow [compare].  Subscripts never take [~gen]. *)

and load_int ctx e : iexp =
  let ty, a = compile_addr ctx e in
  match ty with
  | Minic.Ast.Tarray _ | Minic.Ast.Tstruct _ ->
      err "reading aggregate %s" (Minic.Pretty.expr_to_string e)
  | _ ->
      let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
      let mem = ctx.rt.mem and access = ctx.rt.sink.mem_access in
      Ic
        (fun tid fr ->
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:false;
          Mem.load_int mem ~ty ~addr:p)

and load_float ctx e : fexp =
  let ty, a = compile_addr ctx e in
  let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
  let mem = ctx.rt.mem and access = ctx.rt.sink.mem_access in
  let r = new_reg ctx in
  {
    r;
    code =
      Some
        (fun tid fr ->
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:false;
          Mem.load_float mem ~ty ~addr:p fr.flts r);
  }

(* an expression with an int value *)
and compile_int ctx ~gen e : iexp =
  match e with
  | Minic.Ast.Int_lit n -> Ik n
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some (Islot s) -> Ir s
      | Some (Fslot _) -> compile_to_int ctx e
      | None -> (
          if name = "num_threads" then Ik ctx.rt.threads
          else
            match global_type ctx.rt name with
            | Some _ -> load_int ctx e
            | None -> err "unbound identifier %s" name))
  | Minic.Ast.Binop
      ( ( Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge
        | Minic.Ast.Eq | Minic.Ast.Ne | Minic.Ast.And | Minic.Ast.Or ),
        _,
        _ )
  | Minic.Ast.Unop (Minic.Ast.Not, _) ->
      let c = compile_cond ctx ~gen e in
      Ic (fun tid fr -> if c tid fr then 1 else 0)
  | Minic.Ast.Binop (((Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul) as op), a, b)
    -> (
      let a = compile_int ctx ~gen a and b = compile_int ctx ~gen b in
      match (a, b) with
      | Ik x, Ik y -> Ik (iarith op x y)
      | Ir s, Ik k -> Ic (fun _ fr -> iarith op fr.ints.(s) k)
      | Ik k, Ir s -> Ic (fun _ fr -> iarith op k fr.ints.(s))
      | Ir s1, Ir s2 -> Ic (fun _ fr -> iarith op fr.ints.(s1) fr.ints.(s2))
      | a, b ->
          let ca = icode a and cb = icode b in
          Ic
            (fun tid fr ->
              let y = cb tid fr in
              iarith op (ca tid fr) y))
  | Minic.Ast.Binop (((Minic.Ast.Div | Minic.Ast.Mod) as op), a, b) -> (
      let a = compile_int ctx ~gen a and b = compile_int ctx ~gen b in
      match (a, b) with
      | Ik x, Ik y when y <> 0 -> Ik (iarith op x y)
      | a, b ->
          let ca = icode a and cb = icode b in
          if gen then
            Ic
              (fun tid fr ->
                let y = cb tid fr in
                iarith op (ca tid fr) y)
          else
            Ic
              (fun tid fr ->
                let y = cb tid fr in
                if y = 0 then raise Division_by_zero;
                iarith op (ca tid fr) y))
  | Minic.Ast.Unop (Minic.Ast.Neg, a) -> (
      match compile_int ctx ~gen a with
      | Ik k -> Ik (-k)
      | a ->
          let ca = icode a in
          Ic (fun tid fr -> -ca tid fr))
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> load_int ctx e
  | Minic.Ast.Float_lit _ | Minic.Ast.Call _ -> compile_to_int ctx e

(* an expression in an int context: a float value is computed in the
   generic order, then truncates *)
and compile_to_int ctx e : iexp =
  if expr_is_float ctx e then begin
    let fx = compile_float ctx ~gen:true e in
    let r = fx.r in
    match fx.code with
    | None -> Ic (fun _ fr -> int_of_float (fget fr r))
    | Some c ->
        Ic
          (fun tid fr ->
            c tid fr;
            int_of_float (fget fr r))
  end
  else compile_int ctx ~gen:false e

(* an expression in a float context: an int value is promoted *)
and compile_as_float ctx ~gen e : fexp =
  if expr_is_float ctx e then compile_float ctx ~gen e
  else
    match compile_int ctx ~gen e with
    | Ik k -> { r = const_reg ctx (float_of_int k); code = None }
    | Ir s ->
        let r = new_reg ctx in
        { r; code = Some (fun _ fr -> fset fr r (float_of_int fr.ints.(s))) }
    | Ic c ->
        let r = new_reg ctx in
        { r; code = Some (fun tid fr -> fset fr r (float_of_int (c tid fr))) }

(* an expression with a float value *)
and compile_float ctx ~gen e : fexp =
  match e with
  | Minic.Ast.Float_lit f -> { r = const_reg ctx f; code = None }
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some (Fslot s) -> { r = s; code = None }
      | Some (Islot _) -> compile_as_float ctx ~gen e
      | None -> (
          match global_type ctx.rt name with
          | Some _ -> load_float ctx e
          | None -> err "unbound identifier %s" name))
  | Minic.Ast.Binop
      ( (( Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul | Minic.Ast.Div
         | Minic.Ast.Mod ) as op),
        a,
        b ) ->
      let int_local = function
        | Minic.Ast.Ident name -> (
            match slot_of ctx name with Some (Islot s) -> Some s | _ -> None)
        | _ -> None
      in
      begin match (int_local a, int_local b) with
      | None, Some sb ->
          (* an int local operand is promoted in place, without a node *)
          let a = compile_as_float ctx ~gen a in
          let r = new_reg ctx and ra = a.r and c = run a.code in
          {
            r;
            code =
              Some
                (fun tid fr ->
                  c tid fr;
                  fset fr r
                    (farith op (fget fr ra) (float_of_int fr.ints.(sb))));
          }
      | Some sa, None ->
          let b = compile_as_float ctx ~gen b in
          let r = new_reg ctx and rb = b.r and c = run b.code in
          {
            r;
            code =
              Some
                (fun tid fr ->
                  c tid fr;
                  fset fr r
                    (farith op (float_of_int fr.ints.(sa)) (fget fr rb)));
          }
      | _ ->
      let a = compile_as_float ctx ~gen a
      and b = compile_as_float ctx ~gen b in
      let r = new_reg ctx and ra = a.r and rb = b.r in
      let code =
        (* the right operand runs first *)
        match (b.code, a.code) with
        | None, None -> fun _ fr -> fset fr r (farith op (fget fr ra) (fget fr rb))
        | Some cb, None ->
            fun tid fr ->
              cb tid fr;
              fset fr r (farith op (fget fr ra) (fget fr rb))
        | None, Some ca ->
            fun tid fr ->
              ca tid fr;
              fset fr r (farith op (fget fr ra) (fget fr rb))
        | Some cb, Some ca ->
            fun tid fr ->
              cb tid fr;
              ca tid fr;
              fset fr r (farith op (fget fr ra) (fget fr rb))
      in
      { r; code = Some code }
      end
  | Minic.Ast.Unop (Minic.Ast.Neg, a) ->
      let a = compile_as_float ctx ~gen a in
      let r = new_reg ctx and ra = a.r in
      let code =
        match a.code with
        | None -> fun _ fr -> fset fr r (-.fget fr ra)
        | Some ca ->
            fun tid fr ->
              ca tid fr;
              fset fr r (-.fget fr ra)
      in
      { r; code = Some code }
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> load_float ctx e
  | Minic.Ast.Call (name, [ a ]) when builtin1 name <> None ->
      let f = Option.get (builtin1 name) in
      let a = compile_as_float ctx ~gen a in
      let r = new_reg ctx and ra = a.r in
      let code =
        match a.code with
        | None -> fun _ fr -> fset fr r (apply1 f (fget fr ra))
        | Some ca ->
            fun tid fr ->
              ca tid fr;
              fset fr r (apply1 f (fget fr ra))
      in
      { r; code = Some code }
  | Minic.Ast.Call (name, [ a; b ]) when builtin2 name <> None ->
      let f = Option.get (builtin2 name) in
      let a = compile_as_float ctx ~gen a
      and b = compile_as_float ctx ~gen b in
      let r = new_reg ctx and ra = a.r and rb = b.r in
      let first, second = if gen then (a.code, b.code) else (b.code, a.code) in
      let c1 = run first and c2 = run second in
      {
        r;
        code =
          Some
            (fun tid fr ->
              c1 tid fr;
              c2 tid fr;
              fset fr r (apply2 f (fget fr ra) (fget fr rb)));
      }
  | Minic.Ast.Call (name, args) ->
      invalid_arg
        (Printf.sprintf "%s: unknown builtin or bad arity (%d)" name
           (List.length args))
  | _ -> compile_as_float ctx ~gen e

and compile_cond ctx ~gen e : int -> frame -> bool =
  match e with
  | Minic.Ast.Binop
      ( (( Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge
         | Minic.Ast.Eq | Minic.Ast.Ne ) as op),
        a,
        b ) ->
      if expr_is_float ctx a || expr_is_float ctx b then begin
        let a = compile_as_float ctx ~gen a
        and b = compile_as_float ctx ~gen b in
        let ra = a.r and rb = b.r in
        let ca = run a.code and cb = run b.code in
        if gen then fun tid fr ->
          cb tid fr;
          ca tid fr;
          fcmp_total op (fget fr ra) (fget fr rb)
        else fun tid fr ->
          cb tid fr;
          ca tid fr;
          fcmp op (fget fr ra) (fget fr rb)
      end
      else begin
        match (compile_int ctx ~gen a, compile_int ctx ~gen b) with
        | Ir s, Ik k -> fun _ fr -> icmp op fr.ints.(s) k
        | Ir s1, Ir s2 -> fun _ fr -> icmp op fr.ints.(s1) fr.ints.(s2)
        | a, b ->
            let ca = icode a and cb = icode b in
            fun tid fr ->
              let y = cb tid fr in
              icmp op (ca tid fr) y
      end
  | Minic.Ast.Binop (Minic.Ast.And, a, b) ->
      let ca = compile_cond ctx ~gen a and cb = compile_cond ctx ~gen b in
      fun tid fr -> ca tid fr && cb tid fr
  | Minic.Ast.Binop (Minic.Ast.Or, a, b) ->
      let ca = compile_cond ctx ~gen a and cb = compile_cond ctx ~gen b in
      fun tid fr -> ca tid fr || cb tid fr
  | Minic.Ast.Unop (Minic.Ast.Not, a) ->
      let ca = compile_cond ctx ~gen a in
      fun tid fr -> not (ca tid fr)
  | _ ->
      if expr_is_float ctx e then begin
        let fx = compile_float ctx ~gen e in
        let r = fx.r and c = run fx.code in
        fun tid fr ->
          c tid fr;
          fget fr r <> 0.
      end
      else
        let c = icode (compile_int ctx ~gen e) in
        fun tid fr -> c tid fr <> 0

(* a statement expression: evaluated for its loads, value discarded *)
let compile_effect ctx e : int -> frame -> unit =
  if expr_is_float ctx e then run (compile_float ctx ~gen:true e).code
  else
    match compile_int ctx ~gen:true e with
    | Ik _ | Ir _ -> fun _ _ -> ()
    | Ic c -> fun tid fr -> ignore (c tid fr)

exception Return_exc
exception Break_exc
exception Continue_exc

let binop_of_assign = function
  | Minic.Ast.A_add -> Minic.Ast.Add
  | Minic.Ast.A_sub -> Minic.Ast.Sub
  | Minic.Ast.A_mul -> Minic.Ast.Mul
  | Minic.Ast.A_div -> Minic.Ast.Div
  | Minic.Ast.A_set -> assert false

(* [old op rv] on ints, the divisor tested after both are known *)
let[@inline] int_update op old rv =
  match op with
  | Minic.Ast.Div when rv = 0 -> raise Division_by_zero
  | _ -> iarith op old rv

(* A value on its way into a local or a location: int or float, with the
   code that computes it. *)
type value = Vint of (int -> frame -> int) | Vflt of fexp

let compile_value ctx ~gen e =
  if expr_is_float ctx e then Vflt (compile_float ctx ~gen e)
  else Vint (icode (compile_int ctx ~gen e))

(* a value in an int context: a float truncates *)
let int_code = function
  | Vint c -> c
  | Vflt { r; code } ->
      let c = run code in
      fun tid fr ->
        c tid fr;
        int_of_float (fget fr r)

(* the store of [v] into a local, converted to the local's type *)
let store_local slot v : int -> frame -> unit =
  match (slot, v) with
  | Islot s, v ->
      let c = int_code v in
      fun tid fr -> fr.ints.(s) <- c tid fr
  | Fslot s, Vint c -> fun tid fr -> fset fr s (float_of_int (c tid fr))
  | Fslot s, Vflt { r; code } ->
      let c = run code in
      fun tid fr ->
        c tid fr;
        fset fr s (fget fr r)

(* Assignment.  Events: the right-hand side's loads, then for a compound
   assignment the read of the target, then its write; the target's
   address is computed for each access, unless it is pure.  Values
   convert to the target's type, as in C. *)
let compile_assign ctx ~cost lhs op rhs : int -> frame -> unit =
  let rhs_is_float = expr_is_float ctx rhs in
  let mem = ctx.rt.mem and access = ctx.rt.sink.mem_access in
  let cpu = ctx.rt.sink.cpu and charged = cost <> 0. in
  let charging body =
    if charged then fun tid fr ->
      cpu ~tid cost;
      body tid fr
    else body
  in
  (* A store into memory charges the statement's cost itself, saving a
     closure call on the hottest path.  A float location takes a float
     value; an int location an int value, or a float one that truncates
     (a compound update computes in double first, as C does). *)
  let float_location ty (a : addr) { r; code } =
    let size = Minic.Ctypes.sizeof (structs ctx.rt) ty and c = run code in
    match op with
    | Minic.Ast.A_set ->
        fun tid fr ->
          if charged then cpu ~tid cost;
          c tid fr;
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:true;
          Mem.store_float mem ~ty ~addr:p fr.flts r
    | _ ->
        let bop = binop_of_assign op and pure = pure a and t = new_reg ctx in
        fun tid fr ->
          if charged then cpu ~tid cost;
          c tid fr;
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:false;
          Mem.load_float mem ~ty ~addr:p fr.flts t;
          fset fr t (farith bop (fget fr t) (fget fr r));
          let p = if pure then p else address tid fr a in
          access ~tid ~addr:p ~size ~write:true;
          Mem.store_float mem ~ty ~addr:p fr.flts t
  in
  let int_location ty (a : addr) v =
    let size = Minic.Ctypes.sizeof (structs ctx.rt) ty and pure = pure a in
    match (op, v) with
    | Minic.Ast.A_set, v ->
        let c = int_code v in
        fun tid fr ->
          if charged then cpu ~tid cost;
          let v = c tid fr in
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:true;
          Mem.store_int mem ~ty ~addr:p v
    | _, Vint c ->
        let bop = binop_of_assign op in
        fun tid fr ->
          if charged then cpu ~tid cost;
          let rv = c tid fr in
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:false;
          let res = int_update bop (Mem.load_int mem ~ty ~addr:p) rv in
          let p = if pure then p else address tid fr a in
          access ~tid ~addr:p ~size ~write:true;
          Mem.store_int mem ~ty ~addr:p res
    | _, Vflt { r; code } ->
        let bop = binop_of_assign op and c = run code in
        fun tid fr ->
          if charged then cpu ~tid cost;
          c tid fr;
          let p = address tid fr a in
          access ~tid ~addr:p ~size ~write:false;
          let old = float_of_int (Mem.load_int mem ~ty ~addr:p) in
          let res = int_of_float (farith bop old (fget fr r)) in
          let p = if pure then p else address tid fr a in
          access ~tid ~addr:p ~size ~write:true;
          Mem.store_int mem ~ty ~addr:p res
  in
  match lhs with
  | Minic.Ast.Ident name when slot_of ctx name <> None ->
      charging
      @@
      let slot = Option.get (slot_of ctx name) in
      begin match (op, slot) with
      | Minic.Ast.A_set, Islot _ ->
          store_local slot (compile_value ctx ~gen:false rhs)
      | Minic.Ast.A_set, Fslot _ ->
          (* an int value for a float local is computed in the generic
             order *)
          store_local slot (compile_value ctx ~gen:(not rhs_is_float) rhs)
      | _, Islot s -> (
          let bop = binop_of_assign op in
          match compile_value ctx ~gen:rhs_is_float rhs with
          | Vint c ->
              fun tid fr ->
                let rv = c tid fr in
                fr.ints.(s) <- int_update bop fr.ints.(s) rv
          | Vflt { r; code } ->
              let c = run code in
              fun tid fr ->
                c tid fr;
                fr.ints.(s) <-
                  int_of_float
                    (farith bop (float_of_int fr.ints.(s)) (fget fr r)))
      | _, Fslot s ->
          let bop = binop_of_assign op in
          let { r; code } = compile_as_float ctx ~gen:false rhs in
          let c = run code in
          fun tid fr ->
            c tid fr;
            fset fr s (farith bop (fget fr s) (fget fr r))
      end
  | Minic.Ast.Ident _ | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx lhs with
      | Some ((Minic.Ast.Tfloat | Minic.Ast.Tdouble) as ty) ->
          let _, a = compile_addr ctx lhs in
          float_location ty a (compile_as_float ctx ~gen:false rhs)
      | Some ((Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong) as ty)
        when not rhs_is_float ->
          let _, a = compile_addr ctx lhs in
          int_location ty a (compile_value ctx ~gen:false rhs)
      | _ -> (
          (* a float value for an int location, computed in the
             generic order before the target is compiled; typing leaves
             no other target here *)
          let v = compile_value ctx ~gen:true rhs in
          let ty, a = compile_addr ctx lhs in
          match ty with
          | Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong ->
              int_location ty a v
          | _ -> err "assigning aggregate %s" (Minic.Pretty.expr_to_string lhs)))
  | _ ->
      ignore (compile_value ctx ~gen:true rhs);
      err "invalid assignment target %s" (Minic.Pretty.expr_to_string lhs)

(* estimated CPU cost of one execution of a statement, from the processor
   model (computed once at compile time) *)
let stmt_cost ctx stmt =
  let type_of_var v =
    match slot_type ctx v with
    | Some ty -> Some ty
    | None -> (
        match global_type ctx.rt v with
        | Some ty -> Some ty
        | None -> List.assoc_opt v Minic.Typecheck.implicit_params)
  in
  let ops =
    Costmodel.Op_count.of_body (structs ctx.rt) ~type_of:type_of_var
      ~core:Archspec.Latency.default [ stmt ]
  in
  (Costmodel.Processor_model.of_op_count ~core:Archspec.Latency.default ops)
    .Costmodel.Processor_model.cycles_per_iter

type compiled_stmt = int -> frame -> unit

let rec compile_stmt ctx stmt : compiled_stmt =
  (* charge each statement's own work exactly once: compound statements
     delegate to their children, an [if] owns only its condition *)
  let cost =
    match stmt with
    | Minic.Ast.Sexpr _ | Minic.Ast.Sassign _ | Minic.Ast.Sdecl _
    | Minic.Ast.Sreturn _ ->
        stmt_cost ctx stmt
    | Minic.Ast.Sif (c, _, _) -> stmt_cost ctx (Minic.Ast.Sexpr c) +. 1.
    | Minic.Ast.Sbreak | Minic.Ast.Scontinue -> 1.
    | Minic.Ast.Sblock _ | Minic.Ast.Sfor _ | Minic.Ast.Swhile _ -> 0.
  in
  let rt = ctx.rt in
  let body : compiled_stmt =
    match stmt with
    | Minic.Ast.Sexpr e -> compile_effect ctx e
    | Minic.Ast.Sassign (_, lhs, op, rhs) -> compile_assign ctx ~cost lhs op rhs
    | Minic.Ast.Sdecl (ty, name, init) -> (
        add_slot ctx name ty;
        let slot = Option.get (slot_of ctx name) in
        match init with
        | Some e when Value.is_float_type ty ->
            store_local slot (Vflt (compile_as_float ctx ~gen:false e))
        | Some e -> store_local slot (Vint (icode (compile_to_int ctx e)))
        | None -> store_local slot (Vint (fun _ _ -> 0)))
    | Minic.Ast.Sblock stmts -> (
        match Array.of_list (List.map (compile_stmt ctx) stmts) with
        | [| s |] -> s
        | arr ->
            fun tid fr ->
              for i = 0 to Array.length arr - 1 do
                arr.(i) tid fr
              done)
    | Minic.Ast.Sif (c, then_, else_) -> (
        let cc = compile_cond ctx ~gen:false c in
        let ct = compile_stmt ctx then_ in
        match else_ with
        | Some e ->
            let ce = compile_stmt ctx e in
            fun tid fr -> if cc tid fr then ct tid fr else ce tid fr
        | None -> fun tid fr -> if cc tid fr then ct tid fr)
    | Minic.Ast.Sfor loop -> (
        match loop.Minic.Ast.pragma with
        | Some pragma -> compile_parallel_for ctx loop pragma
        | None -> compile_seq_for ctx loop)
    | Minic.Ast.Swhile (c, body) ->
        let cc = compile_cond ctx ~gen:false c in
        let cbody = compile_stmt ctx body in
        let cpu = rt.sink.cpu and iter_cost = rt.loop_iter_cost in
        fun tid fr ->
          (try
             while cc tid fr do
               cpu ~tid iter_cost;
               try cbody tid fr with Continue_exc -> ()
             done
           with Break_exc -> ())
    | Minic.Ast.Sbreak -> fun _ _ -> raise Break_exc
    | Minic.Ast.Scontinue -> fun _ _ -> raise Continue_exc
    | Minic.Ast.Sreturn _ -> fun _ _ -> raise Return_exc
  in
  match stmt with
  | Minic.Ast.Sassign _ -> body
  | _ ->
      if cost = 0. then body
      else
        let cpu = rt.sink.cpu in
        fun tid fr ->
          cpu ~tid cost;
          body tid fr

(* the induction variable always lives in an int local, even when it
   names a global *)
and induction_slot ctx loop =
  add_slot ctx loop.Minic.Ast.init_var Minic.Ast.Tint;
  match slot_of ctx loop.Minic.Ast.init_var with
  | Some (Islot s) -> s
  | _ -> err "loop variable %s is not integral" loop.Minic.Ast.init_var

and compile_seq_for ctx loop : compiled_stmt =
  let s = induction_slot ctx loop in
  let cinit = icode (compile_to_int ctx loop.Minic.Ast.init_expr) in
  let ccond = compile_cond ctx ~gen:false loop.Minic.Ast.cond in
  let cstep = icode (compile_to_int ctx loop.Minic.Ast.step.Minic.Ast.step_by) in
  let cbody = compile_stmt ctx loop.Minic.Ast.body in
  let cpu = ctx.rt.sink.cpu and iter_cost = ctx.rt.loop_iter_cost in
  fun tid fr ->
    fr.ints.(s) <- cinit tid fr;
    try
      while ccond tid fr do
        cpu ~tid iter_cost;
        (try cbody tid fr with Continue_exc -> ());
        let d = cstep tid fr in
        fr.ints.(s) <- fr.ints.(s) + d
      done
    with Break_exc -> ()

and compile_parallel_for ctx loop (pragma : Minic.Ast.pragma) : compiled_stmt =
  let slot = induction_slot ctx loop in
  let cinit = icode (compile_to_int ctx loop.Minic.Ast.init_expr) in
  let cstep = icode (compile_to_int ctx loop.Minic.Ast.step.Minic.Ast.step_by) in
  let var = loop.Minic.Ast.init_var in
  let cupper =
    match loop.Minic.Ast.cond with
    | Minic.Ast.Binop (Minic.Ast.Lt, Minic.Ast.Ident v, e) when v = var ->
        icode (compile_to_int ctx e)
    | Minic.Ast.Binop (Minic.Ast.Le, Minic.Ast.Ident v, e) when v = var ->
        let ce = icode (compile_to_int ctx e) in
        fun tid fr -> ce tid fr + 1
    | _ ->
        err "parallel loop condition must be 'var < bound' or 'var <= bound'"
  in
  let cbody = compile_stmt ctx loop.Minic.Ast.body in
  let reduction_slots =
    List.concat_map
      (fun (op, vars) ->
        List.filter_map
          (fun v -> Option.map (fun s -> (op, s)) (slot_of ctx v))
          vars)
      pragma.Minic.Ast.reduction
  in
  let rt = ctx.rt in
  let cpu = rt.sink.cpu and iter_cost = rt.loop_iter_cost in
  fun tid0 frame ->
    let lower = cinit tid0 frame in
    let step = cstep tid0 frame in
    if step <= 0 then err "parallel loop with non-positive step";
    let upper = cupper tid0 frame in
    let total = if upper <= lower then 0 else (upper - lower + step - 1) / step in
    let threads = rt.threads in
    let chunk_clause =
      match rt.chunk_override with
      | Some c -> Some c
      | None -> (
          match pragma.Minic.Ast.schedule with
          | Some
              ( Minic.Ast.Sched_static c
              | Minic.Ast.Sched_dynamic c
              | Minic.Ast.Sched_guided c ) ->
              c
          | None -> None)
    in
    let kind =
      match pragma.Minic.Ast.schedule with
      | Some (Minic.Ast.Sched_dynamic _) -> `Dynamic
      | Some (Minic.Ast.Sched_guided _) -> `Guided
      | Some (Minic.Ast.Sched_static _) | None -> `Static
    in
    rt.sink.region_begin ~threads;
    let chunks_grabbed = Array.make threads 0 in
    (* next_iter tid: the iteration a thread executes next, or -1 when the
       thread is out of work; each kind deals chunks its own way *)
    let next_iter =
      match rt.sched_override with
      | Some (k, seed) ->
          (* seeded replay: execute the exact per-thread iteration
             sequences of the dispenser plan the cost model counts, so a
             simulated run is comparable to a Model run seed for seed *)
          let plan = Ompsched.Dispatch.plan ~threads ~total ~seed k in
          rt.steals <- rt.steals + Ompsched.Dispatch.steals plan;
          let granule = Ompsched.Dispatch.kind_chunk k in
          let cursors = Array.make threads 0 in
          fun tid ->
            let kth = cursors.(tid) in
            let q = Ompsched.Dispatch.nth_iter_int plan ~tid kth in
            if q >= 0 then begin
              if kth mod granule = 0 then
                chunks_grabbed.(tid) <- chunks_grabbed.(tid) + 1;
              cursors.(tid) <- kth + 1
            end;
            q
      | None -> (
          match kind with
          | `Static ->
              let chunk =
                match chunk_clause with
                | Some c -> c
                | None -> Ompsched.Schedule.block_chunk ~threads ~total
              in
              let sched = Ompsched.Schedule.make ~threads ~chunk ~total in
              let cursors = Array.make threads 0 in
              fun tid ->
                let k = cursors.(tid) in
                let q = Ompsched.Schedule.nth_iter_int sched ~tid k in
                if q >= 0 then begin
                  if k mod chunk = 0 then
                    chunks_grabbed.(tid) <- chunks_grabbed.(tid) + 1;
                  cursors.(tid) <- k + 1
                end;
                q
          | `Dynamic ->
              (* threads grab the next [chunk] iterations from a shared
                 counter whenever their current chunk is exhausted *)
              let chunk = max 1 (Option.value ~default:1 chunk_clause) in
              let next = ref 0 in
              let pos = Array.make threads 0 in
              let stop = Array.make threads 0 in
              fun tid ->
                if pos.(tid) < stop.(tid) then begin
                  let q = pos.(tid) in
                  pos.(tid) <- q + 1;
                  q
                end
                else if !next >= total then -1
                else begin
                  let s = !next in
                  let len = min chunk (total - s) in
                  next := s + len;
                  chunks_grabbed.(tid) <- chunks_grabbed.(tid) + 1;
                  pos.(tid) <- s + 1;
                  stop.(tid) <- s + len;
                  s
                end
          | `Guided ->
              (* chunk ~ remaining/threads, decaying, bounded below by the
                 clause's minimum *)
              let min_chunk = max 1 (Option.value ~default:1 chunk_clause) in
              let next = ref 0 in
              let pos = Array.make threads 0 in
              let stop = Array.make threads 0 in
              fun tid ->
                if pos.(tid) < stop.(tid) then begin
                  let q = pos.(tid) in
                  pos.(tid) <- q + 1;
                  q
                end
                else if !next >= total then -1
                else begin
                  let s = !next in
                  let remaining = total - s in
                  let len =
                    min remaining
                      (max min_chunk ((remaining + threads - 1) / threads))
                  in
                  next := s + len;
                  chunks_grabbed.(tid) <- chunks_grabbed.(tid) + 1;
                  pos.(tid) <- s + 1;
                  stop.(tid) <- s + len;
                  s
                end)
    in
    (* firstprivate-style frames; a reduction's private copy starts from
       the identity of its type *)
    let frames =
      Array.init threads (fun _ ->
          { ints = Array.copy frame.ints; flts = Float.Array.copy frame.flts })
    in
    List.iter
      (fun (op, s) ->
        Array.iter
          (fun f ->
            match s with
            | Islot s -> f.ints.(s) <- (if op = Minic.Ast.Mul then 1 else 0)
            | Fslot s -> fset f s (if op = Minic.Ast.Mul then 1. else 0.))
          frames)
      reduction_slots;
    let live = ref threads in
    let done_ = Array.make threads false in
    while !live > 0 do
      for tid = 0 to threads - 1 do
        if not done_.(tid) then begin
          let fr = frames.(tid) in
          let w = ref 0 in
          let continue_ = ref true in
          while !continue_ && !w < rt.window do
            let q = next_iter tid in
            if q >= 0 then begin
              fr.ints.(slot) <- lower + (q * step);
              cpu ~tid iter_cost;
              (try cbody tid fr with
              | Continue_exc -> ()
              | Break_exc -> err "break out of an OpenMP worksharing loop");
              incr w
            end
            else begin
              done_.(tid) <- true;
              decr live;
              continue_ := false
            end
          done
        end
      done
    done;
    (* fold reductions back into the caller's frame, thread by thread *)
    List.iter
      (fun (op, s) ->
        match s with
        | Islot s ->
            Array.iter
              (fun f -> frame.ints.(s) <- iarith op frame.ints.(s) f.ints.(s))
              frames
        | Fslot s ->
            Array.iter
              (fun f -> fset frame s (farith op (fget frame s) (fget f s)))
              frames)
      reduction_slots;
    let chunks_per_thread = Array.fold_left max 0 chunks_grabbed in
    rt.sink.region_end ~chunks_per_thread

let compile_func t (f : Minic.Ast.func) : compiled_func =
  let ctx = { rt = t; locals = []; nints = 0; nflts = 0; consts = [] } in
  List.iter
    (fun (name, ty) -> add_slot ctx name ty)
    (Minic.Typecheck.locals_of_func t.checked f);
  let arr = Array.of_list (List.map (compile_stmt ctx) f.Minic.Ast.body) in
  let flts0 = Float.Array.make ctx.nflts 0. in
  List.iter (fun (r, v) -> Float.Array.set flts0 r v) ctx.consts;
  {
    nints = ctx.nints;
    flts0;
    body =
      (fun tid fr ->
        try
          for i = 0 to Array.length arr - 1 do
            arr.(i) tid fr
          done
        with Return_exc -> ());
  }

let compiled_of t ~func =
  match Hashtbl.find_opt t.compiled func with
  | Some c -> c
  | None ->
      let f =
        match Minic.Ast.find_func t.checked.Minic.Typecheck.prog func with
        | Some f -> f
        | None -> err "no function named %s" func
      in
      if f.Minic.Ast.params <> [] then
        err "%s takes parameters; only parameterless kernels can be executed"
          func;
      let c = compile_func t f in
      Hashtbl.replace t.compiled func c;
      c

let exec t ~func =
  let c = compiled_of t ~func in
  c.body 0 { ints = Array.make c.nints 0; flts = Float.Array.copy c.flts0 }

type sel = Idx of int | Fld of string

let read_global t name sels =
  let addr0 =
    try Loopir.Layout.addr_of t.layout name
    with Not_found -> err "unknown global %s" name
  in
  let ty0 =
    match global_type t name with Some ty -> ty | None -> assert false
  in
  let addr, ty =
    List.fold_left
      (fun (addr, ty) sel ->
        match (sel, ty) with
        | Idx i, Minic.Ast.Tarray (elem, n) ->
            if i < 0 || i >= n then err "read_global: index out of bounds";
            (addr + (i * Minic.Ctypes.sizeof (structs t) elem), elem)
        | Fld f, Minic.Ast.Tstruct s ->
            ( addr + Minic.Ctypes.field_offset (structs t) s f,
              Minic.Ctypes.field_type (structs t) s f )
        | Idx _, _ -> err "read_global: index into non-array"
        | Fld _, _ -> err "read_global: field of non-struct")
      (addr0, ty0) sels
  in
  Mem.load t.mem ~ty ~addr
