(* Doubles are the hot scalar type; going through Bytes costs a boxed
   Int64 plus bit-twiddling per access.  An aliased floatarray view over
   the same storage serves 8-aligned double accesses unboxed.  Any given
   address is only ever accessed at one type/alignment (globals are
   accessed through their declared type), so the two views never need
   reconciling: aligned doubles live in [dbl], everything else in
   [bytes]. *)

type t = { bytes : Bytes.t; dbl : floatarray }

let create n =
  { bytes = Bytes.make n '\000'; dbl = Float.Array.make ((n + 7) / 8) 0. }

let size t = Bytes.length t.bytes

(* Unboxed accessors: the interpreter calls these directly, so no
   Value.t is constructed per memory access.  A float crossing a module
   boundary is boxed unless the call is inlined, so the float ones take
   a register instead: the value moves between memory and [regs.(r)]
   without a box.  Each branch moves its own value; a float that flows
   out of a match with a guard is boxed. *)

let load_float t ~ty ~addr regs r =
  match ty with
  | Minic.Ast.Tdouble ->
      if addr land 7 = 0 then
        Float.Array.set regs r (Float.Array.get t.dbl (addr lsr 3))
      else
        Float.Array.set regs r
          (Int64.float_of_bits (Bytes.get_int64_le t.bytes addr))
  | Minic.Ast.Tfloat ->
      Float.Array.set regs r
        (Int32.float_of_bits (Bytes.get_int32_le t.bytes addr))
  | _ -> invalid_arg "Mem.load_float: non-float type"

let store_float t ~ty ~addr regs r =
  match ty with
  | Minic.Ast.Tdouble ->
      if addr land 7 = 0 then
        Float.Array.set t.dbl (addr lsr 3) (Float.Array.get regs r)
      else
        Bytes.set_int64_le t.bytes addr
          (Int64.bits_of_float (Float.Array.get regs r))
  | Minic.Ast.Tfloat ->
      Bytes.set_int32_le t.bytes addr
        (Int32.bits_of_float (Float.Array.get regs r))
  | _ -> invalid_arg "Mem.store_float: non-float type"

let load_int t ~ty ~addr =
  match ty with
  | Minic.Ast.Tchar -> Char.code (Bytes.get t.bytes addr)
  | Minic.Ast.Tint -> Int32.to_int (Bytes.get_int32_le t.bytes addr)
  | Minic.Ast.Tlong -> Int64.to_int (Bytes.get_int64_le t.bytes addr)
  | _ -> invalid_arg "Mem.load_int: non-integer type"

let store_int t ~ty ~addr n =
  match ty with
  | Minic.Ast.Tchar -> Bytes.set t.bytes addr (Char.chr (n land 0xff))
  | Minic.Ast.Tint -> Bytes.set_int32_le t.bytes addr (Int32.of_int n)
  | Minic.Ast.Tlong -> Bytes.set_int64_le t.bytes addr (Int64.of_int n)
  | _ -> invalid_arg "Mem.store_int: non-integer type"

let load t ~ty ~addr =
  match ty with
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble ->
      let reg = Float.Array.make 1 0. in
      load_float t ~ty ~addr reg 0;
      Value.V_float (Float.Array.get reg 0)
  | Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong ->
      Value.V_int (load_int t ~ty ~addr)
  | Minic.Ast.Tvoid | Minic.Ast.Tstruct _ | Minic.Ast.Tarray _ ->
      invalid_arg "Mem.load: non-scalar type"

let store t ~ty ~addr v =
  match ty with
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble ->
      store_float t ~ty ~addr (Float.Array.make 1 (Value.to_float v)) 0
  | Minic.Ast.Tchar | Minic.Ast.Tint | Minic.Ast.Tlong ->
      store_int t ~ty ~addr (Value.to_int v)
  | Minic.Ast.Tvoid | Minic.Ast.Tstruct _ | Minic.Ast.Tarray _ ->
      invalid_arg "Mem.store: non-scalar type"
