(* Reference interpreter: the test oracle for [Execsim.Interp].

   This is the tree of [Value.t]-returning closures that the library's
   interpreter replaced: a generic evaluator ([compile_expr],
   [compile_store]) plus typed int/float paths that fall back to it.  It
   is kept, like [coherence_ref.ml] for the MESI model, because it is
   short to read and independent of the library's frames, registers and
   affine addresses; test_execsim runs both on the same programs
   and requires the same sink events (every [mem_access] tuple, every
   [cpu] charge bit for bit, the region boundaries), the same steals,
   the same [Runtime_error] text and the same final memory.

   Stores into a local convert to the local's declared type, and a
   reduction's private copies start from the identity of that type, as
   in C; the library follows the same rules. *)

open Execsim

exception Runtime_error of string

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* [Mem]'s float accessors move a value through a register; the oracle
   passes a one-slot one *)
let load_float mem ~ty ~addr =
  let reg = Float.Array.make 1 0. in
  Mem.load_float mem ~ty ~addr reg 0;
  Float.Array.get reg 0

let store_float mem ~ty ~addr v =
  Mem.store_float mem ~ty ~addr (Float.Array.make 1 v) 0

type sink = Interp.sink = {
  mem_access : tid:int -> addr:int -> size:int -> write:bool -> unit;
  cpu : tid:int -> float -> unit;
  region_begin : threads:int -> unit;
  region_end : chunks_per_thread:int -> unit;
}

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

(* Functions compile once into closures over (tid, frame); a frame is the
   function's locals as a value array — no hashing on the hot path. *)
and frame = Value.t array
and compiled_func = { zeros : frame; body : t -> int -> frame -> unit }

let create ?(threads = 1) ?chunk_override ?sched_override
    ?(interleave_window = 4) ?(sink = Interp.null_sink) checked =
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

let memory t = t.mem
let structs t = t.checked.Minic.Typecheck.structs

let global_type t name =
  List.assoc_opt name t.checked.Minic.Typecheck.global_types

(* ---------------------------------------------------------------- *)
(* Compilation                                                        *)
(* ---------------------------------------------------------------- *)

type ctx = {
  rt : t;
  mutable slots : (string * Minic.Ast.ctype) list;  (* name, static type *)
}

let slot_of ctx name =
  let rec go i = function
    | [] -> None
    | (n, _) :: _ when n = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 ctx.slots

let slot_type ctx name = List.assoc_opt name ctx.slots

let add_slot ctx name ty =
  if slot_of ctx name = None then ctx.slots <- ctx.slots @ [ (name, ty) ]

(* a store into a local converts to the local's declared type *)
let slot_setter ctx slot : frame -> Value.t -> unit =
  let ty = snd (List.nth ctx.slots slot) in
  fun frame v -> frame.(slot) <- Value.convert ty v

(* compiled address of an access path rooted at a global; bounds checks are
   compiled in with the statically-known dimensions *)
let rec compile_addr ctx e : (int -> frame -> int) * Minic.Ast.ctype =
  match e with
  | Minic.Ast.Ident v -> (
      match global_type ctx.rt v with
      | Some ty ->
          let base = Loopir.Layout.addr_of ctx.rt.layout v in
          ((fun _ _ -> base), ty)
      | None -> err "%s is not a global (locals have no address)" v)
  | Minic.Ast.Index (p, idx) -> (
      let addr_p, ty = compile_addr ctx p in
      let idx_v = compile_expr_i ctx idx in
      match ty with
      | Minic.Ast.Tarray (elem, n) ->
          let esz = Minic.Ctypes.sizeof (structs ctx.rt) elem in
          let repr = Minic.Pretty.expr_to_string e in
          ( (fun tid frame ->
              let i = idx_v tid frame in
              if i < 0 || i >= n then
                err "index %d out of bounds [0,%d) in %s" i n repr;
              addr_p tid frame + (i * esz)),
            elem )
      | _ -> err "subscript of non-array %s" (Minic.Pretty.expr_to_string p))
  | Minic.Ast.Field (p, f) -> (
      let addr_p, ty = compile_addr ctx p in
      match ty with
      | Minic.Ast.Tstruct s ->
          let off = Minic.Ctypes.field_offset (structs ctx.rt) s f in
          let fty = Minic.Ctypes.field_type (structs ctx.rt) s f in
          ((fun tid frame -> addr_p tid frame + off), fty)
      | _ -> err "field of non-struct %s" (Minic.Pretty.expr_to_string p))
  | _ -> err "not an access path: %s" (Minic.Pretty.expr_to_string e)

and compile_load ctx e : int -> frame -> Value.t =
  let addr, ty = compile_addr ctx e in
  match ty with
  | Minic.Ast.Tarray _ | Minic.Ast.Tstruct _ ->
      err "reading aggregate %s" (Minic.Pretty.expr_to_string e)
  | _ ->
      let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
      let rt = ctx.rt in
      fun tid frame ->
        let a = addr tid frame in
        rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
        Mem.load rt.mem ~ty ~addr:a

and compile_expr ctx e : int -> frame -> Value.t =
  match e with
  | Minic.Ast.Int_lit n ->
      let v = Value.V_int n in
      fun _ _ -> v
  | Minic.Ast.Float_lit f ->
      let v = Value.V_float f in
      fun _ _ -> v
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some slot -> fun _ frame -> frame.(slot)
      | None -> (
          if name = "num_threads" then begin
            let v = Value.V_int ctx.rt.threads in
            fun _ _ -> v
          end
          else
            match global_type ctx.rt name with
            | Some _ -> compile_load ctx e
            | None -> err "unbound identifier %s" name))
  | Minic.Ast.Binop (Minic.Ast.And, a, b) ->
      let ca = compile_expr ctx a and cb = compile_expr ctx b in
      fun tid frame ->
        if Value.truthy (ca tid frame) then
          Value.of_bool (Value.truthy (cb tid frame))
        else Value.V_int 0
  | Minic.Ast.Binop (Minic.Ast.Or, a, b) ->
      let ca = compile_expr ctx a and cb = compile_expr ctx b in
      fun tid frame ->
        if Value.truthy (ca tid frame) then Value.V_int 1
        else Value.of_bool (Value.truthy (cb tid frame))
  | Minic.Ast.Binop (op, a, b) ->
      let ca = compile_expr ctx a and cb = compile_expr ctx b in
      fun tid frame -> Value.binop op (ca tid frame) (cb tid frame)
  | Minic.Ast.Unop (op, a) ->
      let ca = compile_expr ctx a in
      fun tid frame -> Value.unop op (ca tid frame)
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> compile_load ctx e
  | Minic.Ast.Call (f, args) ->
      let cargs = List.map (compile_expr ctx) args in
      (* specialize the common unary case *)
      (match cargs with
      | [ one ] ->
          fun tid frame -> Value.builtin f [ one tid frame ]
      | _ -> fun tid frame -> Value.builtin f (List.map (fun c -> c tid frame) cargs))

(* ---- typed compilation ---------------------------------------------
   Mini-C is statically typed, so most expressions are known int or known
   float at compile time.  Compiling them to [int]/[float]-returning
   closures removes the per-node [Value.t] boxing that dominated the
   interpreter's allocation (~8 GB per quick bench run).  The generic
   [compile_expr] remains the semantics reference and the fallback for
   anything the typed paths don't cover; the typed closures perform the
   same sink accesses in the same order (operands right-to-left, matching
   the generic applications; rhs before lhs-read before lhs-write). *)

(* static type of an access path, mirroring compile_addr's resolution *)
and path_type ctx e : Minic.Ast.ctype option =
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

(* whether the generic evaluator would produce a V_float; mirrors the
   resolution order of compile_expr (slots shadow num_threads and
   globals) and the promotion rules of Value.binop *)
and expr_is_float ctx e =
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
  | Minic.Ast.Binop (_, _, _) -> false (* comparisons and &&/|| are ints *)
  | Minic.Ast.Unop (Minic.Ast.Neg, a) -> expr_is_float ctx a
  | Minic.Ast.Unop (Minic.Ast.Not, _) -> false
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx e with
      | Some ty -> Value.is_float_type ty
      | None -> false)
  | Minic.Ast.Call (_, _) -> true (* every builtin returns a float *)

and compile_load_i ctx e : int -> frame -> int =
  let addr, ty = compile_addr ctx e in
  let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
  let rt = ctx.rt in
  fun tid frame ->
    let a = addr tid frame in
    rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
    Mem.load_int rt.mem ~ty ~addr:a

and compile_load_f ctx e : int -> frame -> float =
  let addr, ty = compile_addr ctx e in
  let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
  let rt = ctx.rt in
  fun tid frame ->
    let a = addr tid frame in
    rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
    load_float rt.mem ~ty ~addr:a

and compile_expr_i ctx e : int -> frame -> int =
  let fallback () =
    let ce = compile_expr ctx e in
    fun tid frame -> Value.to_int (ce tid frame)
  in
  match e with
  | Minic.Ast.Int_lit n -> fun _ _ -> n
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some slot -> fun _ frame -> Value.to_int frame.(slot)
      | None ->
          if name = "num_threads" then begin
            let n = ctx.rt.threads in
            fun _ _ -> n
          end
          else (
            match path_type ctx e with
            | Some (Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong) ->
                compile_load_i ctx e
            | _ -> fallback ()))
  | Minic.Ast.Binop
      ((Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul) as op, a, b)
    when not (expr_is_float ctx a || expr_is_float ctx b) ->
      let ca = compile_expr_i ctx a and cb = compile_expr_i ctx b in
      (* operands right-to-left, like the generic application *)
      (match op with
      | Minic.Ast.Add ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame + y
      | Minic.Ast.Sub ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame - y
      | _ ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame * y)
  | Minic.Ast.Binop ((Minic.Ast.Div | Minic.Ast.Mod) as op, a, b)
    when not (expr_is_float ctx a || expr_is_float ctx b) ->
      let ca = compile_expr_i ctx a and cb = compile_expr_i ctx b in
      (match op with
      | Minic.Ast.Div ->
          fun tid frame ->
            let y = cb tid frame in
            if y = 0 then raise Division_by_zero;
            ca tid frame / y
      | _ ->
          fun tid frame ->
            let y = cb tid frame in
            if y = 0 then raise Division_by_zero;
            ca tid frame mod y)
  | Minic.Ast.Binop
      ((Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge
       | Minic.Ast.Eq | Minic.Ast.Ne | Minic.Ast.And | Minic.Ast.Or),
       _, _)
  | Minic.Ast.Unop (Minic.Ast.Not, _) ->
      let cc = compile_cond ctx e in
      fun tid frame -> if cc tid frame then 1 else 0
  | Minic.Ast.Unop (Minic.Ast.Neg, a) when not (expr_is_float ctx a) ->
      let ca = compile_expr_i ctx a in
      fun tid frame -> -ca tid frame
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx e with
      | Some (Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong) ->
          compile_load_i ctx e
      | _ -> fallback ())
  | _ -> fallback ()

(* evaluate as float, promoting a statically-int expression *)
and compile_expr_as_f ctx e : int -> frame -> float =
  if expr_is_float ctx e then compile_expr_f ctx e
  else
    let ci = compile_expr_i ctx e in
    fun tid frame -> float_of_int (ci tid frame)

and compile_expr_f ctx e : int -> frame -> float =
  let fallback () =
    let ce = compile_expr ctx e in
    fun tid frame -> Value.to_float (ce tid frame)
  in
  match e with
  | Minic.Ast.Float_lit f -> fun _ _ -> f
  | Minic.Ast.Int_lit n ->
      let f = float_of_int n in
      fun _ _ -> f
  | Minic.Ast.Ident name -> (
      match slot_of ctx name with
      | Some slot -> fun _ frame -> Value.to_float frame.(slot)
      | None -> (
          match path_type ctx e with
          | Some (Minic.Ast.Tfloat | Minic.Ast.Tdouble) ->
              compile_load_f ctx e
          | _ -> fallback ()))
  | Minic.Ast.Binop
      ((Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul | Minic.Ast.Div) as op,
       a, b) ->
      let ca = compile_expr_as_f ctx a and cb = compile_expr_as_f ctx b in
      (match op with
      | Minic.Ast.Add ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame +. y
      | Minic.Ast.Sub ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame -. y
      | Minic.Ast.Mul ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame *. y
      | _ ->
          fun tid frame ->
            let y = cb tid frame in
            ca tid frame /. y)
  | Minic.Ast.Binop (Minic.Ast.Mod, a, b) ->
      let ca = compile_expr_as_f ctx a and cb = compile_expr_as_f ctx b in
      fun tid frame ->
        let y = cb tid frame in
        Float.rem (ca tid frame) y
  | Minic.Ast.Unop (Minic.Ast.Neg, a) ->
      let ca = compile_expr_as_f ctx a in
      fun tid frame -> -.(ca tid frame)
  | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx e with
      | Some (Minic.Ast.Tfloat | Minic.Ast.Tdouble) -> compile_load_f ctx e
      | _ -> fallback ())
  | Minic.Ast.Call (name, [ a ]) -> (
      let g =
        match name with
        | "sin" -> Some sin
        | "cos" -> Some cos
        | "tan" -> Some tan
        | "sqrt" -> Some sqrt
        | "fabs" -> Some Float.abs
        | "exp" -> Some exp
        | "log" -> Some log
        | _ -> None
      in
      match g with
      | Some g ->
          let ca = compile_expr_as_f ctx a in
          fun tid frame -> g (ca tid frame)
      | None -> fallback ())
  | Minic.Ast.Call (name, [ a; b ]) -> (
      let g =
        match name with
        | "pow" -> Some Float.pow
        | "fmin" -> Some Float.min
        | "fmax" -> Some Float.max
        | _ -> None
      in
      match g with
      | Some g ->
          let ca = compile_expr_as_f ctx a
          and cb = compile_expr_as_f ctx b in
          fun tid frame ->
            let y = cb tid frame in
            g (ca tid frame) y
      | None -> fallback ())
  | _ -> fallback ()

and compile_cond ctx e : int -> frame -> bool =
  match e with
  | Minic.Ast.Binop
      ((Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge
       | Minic.Ast.Eq | Minic.Ast.Ne) as op, a, b) ->
      if expr_is_float ctx a || expr_is_float ctx b then begin
        let ca = compile_expr_as_f ctx a and cb = compile_expr_as_f ctx b in
        match op with
        | Minic.Ast.Lt ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame < y
        | Minic.Ast.Le ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame <= y
        | Minic.Ast.Gt ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame > y
        | Minic.Ast.Ge ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame >= y
        | Minic.Ast.Eq ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame = y
        | _ ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame <> y
      end
      else begin
        let ca = compile_expr_i ctx a and cb = compile_expr_i ctx b in
        match op with
        | Minic.Ast.Lt ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame < y
        | Minic.Ast.Le ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame <= y
        | Minic.Ast.Gt ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame > y
        | Minic.Ast.Ge ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame >= y
        | Minic.Ast.Eq ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame = y
        | _ ->
            fun tid frame ->
              let y = cb tid frame in
              ca tid frame <> y
      end
  | Minic.Ast.Binop (Minic.Ast.And, a, b) ->
      let ca = compile_cond ctx a and cb = compile_cond ctx b in
      fun tid frame -> ca tid frame && cb tid frame
  | Minic.Ast.Binop (Minic.Ast.Or, a, b) ->
      let ca = compile_cond ctx a and cb = compile_cond ctx b in
      fun tid frame -> ca tid frame || cb tid frame
  | Minic.Ast.Unop (Minic.Ast.Not, a) ->
      let ca = compile_cond ctx a in
      fun tid frame -> not (ca tid frame)
  | _ ->
      if expr_is_float ctx e then begin
        let cf = compile_expr_f ctx e in
        fun tid frame -> cf tid frame <> 0.
      end
      else
        let ci = compile_expr_i ctx e in
        fun tid frame -> ci tid frame <> 0

(* compiled store into an lvalue *)
let compile_store ctx lhs : (int -> frame -> Value.t) * (int -> frame -> Value.t -> unit) =
  match lhs with
  | Minic.Ast.Ident name when slot_of ctx name <> None ->
      let slot = Option.get (slot_of ctx name) in
      let set = slot_setter ctx slot in
      ( (fun _ frame -> frame.(slot)),
        fun _ frame v -> set frame v )
  | Minic.Ast.Ident _ | Minic.Ast.Index _ | Minic.Ast.Field _ ->
      let addr, ty = compile_addr ctx lhs in
      (match ty with
      | Minic.Ast.Tarray _ | Minic.Ast.Tstruct _ ->
          err "assigning aggregate %s" (Minic.Pretty.expr_to_string lhs)
      | _ -> ());
      let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
      let rt = ctx.rt in
      ( (fun tid frame ->
          let a = addr tid frame in
          rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
          Mem.load rt.mem ~ty ~addr:a),
        fun tid frame v ->
          let a = addr tid frame in
          rt.sink.mem_access ~tid ~addr:a ~size ~write:true;
          Mem.store rt.mem ~ty ~addr:a (Value.convert ty v) )
  | _ -> err "invalid assignment target %s" (Minic.Pretty.expr_to_string lhs)

exception Return_exc
exception Break_exc
exception Continue_exc

let binop_of_assign = function
  | Minic.Ast.A_add -> Minic.Ast.Add
  | Minic.Ast.A_sub -> Minic.Ast.Sub
  | Minic.Ast.A_mul -> Minic.Ast.Mul
  | Minic.Ast.A_div -> Minic.Ast.Div
  | Minic.Ast.A_set -> assert false

let float_fn_of = function
  | Minic.Ast.Add -> ( +. )
  | Minic.Ast.Sub -> ( -. )
  | Minic.Ast.Mul -> ( *. )
  | Minic.Ast.Div -> ( /. )
  | _ -> assert false

(* typed assignment: evaluate the rhs unboxed and store without building
   a Value.t.  Sink order matches the generic path exactly: rhs accesses,
   then (for compound ops) the lhs read, then the lhs write.  Falls back
   to the generic compile_store path whenever static types get exotic
   (e.g. an int lvalue with a float rhs). *)
let compile_assign ctx lhs op rhs : int -> frame -> unit =
  let generic () =
    match op with
    | Minic.Ast.A_set ->
        let crhs = compile_expr ctx rhs in
        let _, store = compile_store ctx lhs in
        fun tid frame -> store tid frame (crhs tid frame)
    | _ ->
        let crhs = compile_expr ctx rhs in
        let load, store = compile_store ctx lhs in
        let bop = binop_of_assign op in
        fun tid frame ->
          let rv = crhs tid frame in
          let old = load tid frame in
          store tid frame (Value.binop bop old rv)
  in
  match lhs with
  | Minic.Ast.Ident name when slot_of ctx name <> None -> (
      let slot = Option.get (slot_of ctx name) in
      let slot_is_float =
        match slot_type ctx name with
        | Some ty -> Value.is_float_type ty
        | None -> false
      in
      let rhs_is_float = expr_is_float ctx rhs in
      match op with
      | Minic.Ast.A_set ->
          if slot_is_float || rhs_is_float then
            if rhs_is_float then begin
              let cf = compile_expr_f ctx rhs in
              let set = slot_setter ctx slot in
              fun tid frame -> set frame (Value.V_float (cf tid frame))
            end
            else generic ()
          else begin
            let ci = compile_expr_i ctx rhs in
            fun tid frame -> frame.(slot) <- Value.V_int (ci tid frame)
          end
      | _ ->
          if slot_is_float || rhs_is_float then begin
            (* Value.binop promotes to float when either side is *)
            let cf = compile_expr_as_f ctx rhs in
            let apply = float_fn_of (binop_of_assign op) in
            if slot_is_float then
              fun tid frame ->
                let rv = cf tid frame in
                frame.(slot) <-
                  Value.V_float (apply (Value.to_float frame.(slot)) rv)
            else generic ()
          end
          else begin
            let ci = compile_expr_i ctx rhs in
            let bop = binop_of_assign op in
            fun tid frame ->
              let rv = ci tid frame in
              let old = Value.to_int frame.(slot) in
              frame.(slot) <-
                (match bop with
                | Minic.Ast.Add -> Value.V_int (old + rv)
                | Minic.Ast.Sub -> Value.V_int (old - rv)
                | Minic.Ast.Mul -> Value.V_int (old * rv)
                | _ ->
                    if rv = 0 then raise Division_by_zero;
                    Value.V_int (old / rv))
          end)
  | Minic.Ast.Ident _ | Minic.Ast.Index _ | Minic.Ast.Field _ -> (
      match path_type ctx lhs with
      | Some ((Minic.Ast.Tfloat | Minic.Ast.Tdouble) as ty) ->
          let addr, _ = compile_addr ctx lhs in
          let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
          let rt = ctx.rt in
          (match op with
          | Minic.Ast.A_set ->
              let cf = compile_expr_as_f ctx rhs in
              fun tid frame ->
                let v = cf tid frame in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:true;
                store_float rt.mem ~ty ~addr:a v
          | _ ->
              let cf = compile_expr_as_f ctx rhs in
              let apply = float_fn_of (binop_of_assign op) in
              (* the address is computed once per access, like the
                 generic load/store pair — an index expression that
                 itself reads memory must hit the sink twice *)
              fun tid frame ->
                let rv = cf tid frame in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
                let old = load_float rt.mem ~ty ~addr:a in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:true;
                store_float rt.mem ~ty ~addr:a (apply old rv))
      | Some ((Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong) as ty)
        when not (expr_is_float ctx rhs) -> (
          let addr, _ = compile_addr ctx lhs in
          let size = Minic.Ctypes.sizeof (structs ctx.rt) ty in
          let rt = ctx.rt in
          match op with
          | Minic.Ast.A_set ->
              let ci = compile_expr_i ctx rhs in
              fun tid frame ->
                let v = ci tid frame in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:true;
                Mem.store_int rt.mem ~ty ~addr:a v
          | _ ->
              let ci = compile_expr_i ctx rhs in
              let bop = binop_of_assign op in
              fun tid frame ->
                let rv = ci tid frame in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:false;
                let old = Mem.load_int rt.mem ~ty ~addr:a in
                let res =
                  match bop with
                  | Minic.Ast.Add -> old + rv
                  | Minic.Ast.Sub -> old - rv
                  | Minic.Ast.Mul -> old * rv
                  | _ ->
                      if rv = 0 then raise Division_by_zero;
                      old / rv
                in
                let a = addr tid frame in
                rt.sink.mem_access ~tid ~addr:a ~size ~write:true;
                Mem.store_int rt.mem ~ty ~addr:a res)
      | _ -> generic ())
  | _ -> generic ()

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

type compiled_stmt = t -> int -> frame -> unit

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
  let body : compiled_stmt =
    match stmt with
    | Minic.Ast.Sexpr e ->
        let ce = compile_expr ctx e in
        fun _ tid frame -> ignore (ce tid frame)
    | Minic.Ast.Sassign (_, lhs, op, rhs) ->
        let ca = compile_assign ctx lhs op rhs in
        fun _ tid frame -> ca tid frame
    | Minic.Ast.Sdecl (ty, name, init) -> (
        add_slot ctx name ty;
        let slot = Option.get (slot_of ctx name) in
        let set = slot_setter ctx slot in
        match init with
        | Some e when Value.is_float_type ty ->
            let cf = compile_expr_as_f ctx e in
            fun _ tid frame -> set frame (Value.V_float (cf tid frame))
        | Some e ->
            (* Value.convert to a non-float type is to_int *)
            let ci = compile_expr_i ctx e in
            fun _ tid frame -> set frame (Value.V_int (ci tid frame))
        | None ->
            let zero = Value.zero_of ty in
            fun _ _ frame -> set frame zero)
    | Minic.Ast.Sblock stmts ->
        let cs = List.map (compile_stmt ctx) stmts in
        let arr = Array.of_list cs in
        fun rt tid frame ->
          for i = 0 to Array.length arr - 1 do
            arr.(i) rt tid frame
          done
    | Minic.Ast.Sif (c, then_, else_) -> (
        let cc = compile_cond ctx c in
        let ct = compile_stmt ctx then_ in
        match else_ with
        | Some e ->
            let ce = compile_stmt ctx e in
            fun rt tid frame ->
              if cc tid frame then ct rt tid frame else ce rt tid frame
        | None ->
            fun rt tid frame -> if cc tid frame then ct rt tid frame)
    | Minic.Ast.Sfor loop -> (
        match loop.Minic.Ast.pragma with
        | Some pragma -> compile_parallel_for ctx loop pragma
        | None -> compile_seq_for ctx loop)
    | Minic.Ast.Swhile (c, body) ->
        let cc = compile_cond ctx c in
        let cbody = compile_stmt ctx body in
        fun rt tid frame ->
          (try
             while cc tid frame do
               rt.sink.cpu ~tid rt.loop_iter_cost;
               try cbody rt tid frame with Continue_exc -> ()
             done
           with Break_exc -> ())
    | Minic.Ast.Sbreak -> fun _ _ _ -> raise Break_exc
    | Minic.Ast.Scontinue -> fun _ _ _ -> raise Continue_exc
    | Minic.Ast.Sreturn _ -> fun _ _ _ -> raise Return_exc
  in
  if cost = 0. then body
  else
    fun rt tid frame ->
      rt.sink.cpu ~tid cost;
      body rt tid frame

and induction_slot ctx loop =
  let v = loop.Minic.Ast.init_var in
  (* the induction variable always lives in a slot, mirroring the
     tree-walking interpreter's environment semantics *)
  add_slot ctx v Minic.Ast.Tint;
  Option.get (slot_of ctx v)

and compile_seq_for ctx loop : compiled_stmt =
  let slot = induction_slot ctx loop in
  let cinit = compile_expr_i ctx loop.Minic.Ast.init_expr in
  let ccond = compile_cond ctx loop.Minic.Ast.cond in
  let cstep = compile_expr_i ctx loop.Minic.Ast.step.Minic.Ast.step_by in
  let cbody = compile_stmt ctx loop.Minic.Ast.body in
  fun rt tid frame ->
    frame.(slot) <- Value.V_int (cinit tid frame);
    (try
       while ccond tid frame do
         rt.sink.cpu ~tid rt.loop_iter_cost;
         (try cbody rt tid frame with Continue_exc -> ());
         frame.(slot) <-
           Value.V_int (Value.to_int frame.(slot) + cstep tid frame)
       done
     with Break_exc -> ())

and compile_parallel_for ctx loop (pragma : Minic.Ast.pragma) : compiled_stmt =
  let slot = induction_slot ctx loop in
  let cinit = compile_expr_i ctx loop.Minic.Ast.init_expr in
  let cstep = compile_expr_i ctx loop.Minic.Ast.step.Minic.Ast.step_by in
  let var = loop.Minic.Ast.init_var in
  let cupper =
    match loop.Minic.Ast.cond with
    | Minic.Ast.Binop (Minic.Ast.Lt, Minic.Ast.Ident v, e) when v = var ->
        compile_expr_i ctx e
    | Minic.Ast.Binop (Minic.Ast.Le, Minic.Ast.Ident v, e) when v = var ->
        let ce = compile_expr_i ctx e in
        fun tid frame -> ce tid frame + 1
    | _ ->
        err "parallel loop condition must be 'var < bound' or 'var <= bound'"
  in
  let cbody = compile_stmt ctx loop.Minic.Ast.body in
  let reduction = pragma.Minic.Ast.reduction in
  let reduction_slots =
    List.concat_map
      (fun (op, vars) ->
        List.filter_map
          (fun v ->
            Option.map
              (fun s -> (op, s, snd (List.nth ctx.slots s)))
              (slot_of ctx v))
          vars)
      reduction
  in
  fun rt tid0 frame ->
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
    (* firstprivate-style frames *)
    let frames = Array.init threads (fun _ -> Array.copy frame) in
    List.iter
      (fun (op, s, ty) ->
        let neutral =
          Value.convert ty
            (match op with Minic.Ast.Mul -> Value.V_int 1 | _ -> Value.V_int 0)
        in
        Array.iter (fun f -> f.(s) <- neutral) frames)
      reduction_slots;
    let live = ref threads in
    let done_ = Array.make threads false in
    while !live > 0 do
      for tid = 0 to threads - 1 do
        if not done_.(tid) then begin
          let w = ref 0 in
          let continue_ = ref true in
          while !continue_ && !w < rt.window do
            let q = next_iter tid in
            if q >= 0 then begin
              frames.(tid).(slot) <- Value.V_int (lower + (q * step));
              rt.sink.cpu ~tid rt.loop_iter_cost;
              (try cbody rt tid frames.(tid) with
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
    (* fold reductions back into the caller's frame *)
    List.iter
      (fun (op, s, ty) ->
        let acc =
          Array.fold_left
            (fun acc f -> Value.binop op acc f.(s))
            frame.(s) frames
        in
        frame.(s) <- Value.convert ty acc)
      reduction_slots;
    let chunks_per_thread = Array.fold_left max 0 chunks_grabbed in
    rt.sink.region_end ~chunks_per_thread

let compile_func t (f : Minic.Ast.func) : compiled_func =
  let locals = Minic.Typecheck.locals_of_func t.checked f in
  let ctx = { rt = t; slots = locals } in
  let cs = List.map (compile_stmt ctx) f.Minic.Ast.body in
  let arr = Array.of_list cs in
  let zeros =
    match ctx.slots with
    | [] -> [| Value.V_int 0 |]
    | slots -> Array.of_list (List.map (fun (_, ty) -> Value.zero_of ty) slots)
  in
  {
    zeros;
    body =
      (fun rt tid frame ->
        try
          for i = 0 to Array.length arr - 1 do
            arr.(i) rt tid frame
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
  let frame = Array.copy c.zeros in
  c.body t 0 frame
