(** Flat byte-addressed memory for the interpreter, little-endian, with
    typed scalar accessors matching {!Minic.Ctypes} sizes. *)

type t

val create : int -> t
(** Zero-initialized, like C statics. *)

val size : t -> int

val load : t -> ty:Minic.Ast.ctype -> addr:int -> Value.t
(** @raise Invalid_argument for non-scalar types or out-of-bounds access. *)

val store : t -> ty:Minic.Ast.ctype -> addr:int -> Value.t -> unit

(** Unboxed accessors for the interpreter: no {!Value.t} is constructed
    per access.  [load_float m ~ty ~addr regs r] sets [regs.(r)] to the
    float at [addr], and [store_float m ~ty ~addr regs r] stores
    [regs.(r)] there: the value never crosses a call boxed, which keeps
    the interpreter's float registers allocation-free.
    [load_float]/[store_float] accept only [Tfloat]/[Tdouble];
    [load_int]/[store_int] only [Tchar]/[Tint]/[Tlong] ([Tchar] stores
    mask to one byte).
    @raise Invalid_argument on a type outside the accessor's class. *)

val load_float :
  t -> ty:Minic.Ast.ctype -> addr:int -> floatarray -> int -> unit

val store_float :
  t -> ty:Minic.Ast.ctype -> addr:int -> floatarray -> int -> unit

val load_int : t -> ty:Minic.Ast.ctype -> addr:int -> int
val store_int : t -> ty:Minic.Ast.ctype -> addr:int -> int -> unit
