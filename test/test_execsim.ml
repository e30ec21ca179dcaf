(* Tests for the execution simulator: values, memory, the interpreter's
   computed results (against OCaml recomputations), determinism, and the
   measurement harness. *)

open Execsim

let check = Alcotest.check
let fail = Alcotest.fail

let checked_of src =
  Minic.Typecheck.check_program (Minic.Parser.parse_program src)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_binops () =
  (match Value.binop Minic.Ast.Div (Value.V_int 7) (Value.V_int 2) with
  | Value.V_int 3 -> ()
  | _ -> fail "int division truncates");
  (match Value.binop Minic.Ast.Div (Value.V_int 7) (Value.V_float 2.) with
  | Value.V_float f -> check (Alcotest.float 1e-9) "promotes" 3.5 f
  | _ -> fail "mixed promotes to float");
  (match Value.binop Minic.Ast.Mod (Value.V_int 7) (Value.V_int 0) with
  | exception Division_by_zero -> ()
  | _ -> fail "mod by zero");
  (match Value.binop Minic.Ast.Lt (Value.V_int 1) (Value.V_float 1.5) with
  | Value.V_int 1 -> ()
  | _ -> fail "comparison yields 1");
  match Value.unop Minic.Ast.Not (Value.V_float 0.) with
  | Value.V_int 1 -> ()
  | _ -> fail "!0.0 = 1"

let test_value_convert () =
  (match Value.convert Minic.Ast.Tint (Value.V_float 3.9) with
  | Value.V_int 3 -> ()
  | _ -> fail "float->int truncates");
  match Value.convert Minic.Ast.Tdouble (Value.V_int 3) with
  | Value.V_float 3. -> ()
  | _ -> fail "int->double"

let test_value_builtin () =
  (match Value.builtin "sqrt" [ Value.V_float 9. ] with
  | Value.V_float f -> check (Alcotest.float 1e-9) "sqrt" 3. f
  | _ -> fail "sqrt");
  (match Value.builtin "pow" [ Value.V_int 2; Value.V_int 10 ] with
  | Value.V_float f -> check (Alcotest.float 1e-9) "pow" 1024. f
  | _ -> fail "pow");
  match Value.builtin "sin" [] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "arity"

(* ------------------------------------------------------------------ *)
(* Mem                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mem_roundtrip () =
  let m = Mem.create 64 in
  Mem.store m ~ty:Minic.Ast.Tdouble ~addr:0 (Value.V_float 3.25);
  (match Mem.load m ~ty:Minic.Ast.Tdouble ~addr:0 with
  | Value.V_float f -> check (Alcotest.float 1e-12) "double" 3.25 f
  | _ -> fail "double");
  Mem.store m ~ty:Minic.Ast.Tint ~addr:8 (Value.V_int (-42));
  (match Mem.load m ~ty:Minic.Ast.Tint ~addr:8 with
  | Value.V_int (-42) -> ()
  | _ -> fail "int");
  Mem.store m ~ty:Minic.Ast.Tlong ~addr:16 (Value.V_int 1_000_000_000_000);
  (match Mem.load m ~ty:Minic.Ast.Tlong ~addr:16 with
  | Value.V_int 1_000_000_000_000 -> ()
  | _ -> fail "long");
  Mem.store m ~ty:Minic.Ast.Tfloat ~addr:24 (Value.V_float 1.5);
  (match Mem.load m ~ty:Minic.Ast.Tfloat ~addr:24 with
  | Value.V_float 1.5 -> ()
  | _ -> fail "float");
  Mem.store m ~ty:Minic.Ast.Tchar ~addr:30 (Value.V_int 65);
  (match Mem.load m ~ty:Minic.Ast.Tchar ~addr:30 with
  | Value.V_int 65 -> ()
  | _ -> fail "char");
  check Alcotest.bool "zero init" true
    (Mem.load m ~ty:Minic.Ast.Tint ~addr:60 = Value.V_int 0)

(* ------------------------------------------------------------------ *)
(* Interp correctness                                                  *)
(* ------------------------------------------------------------------ *)

let test_interp_saxpy_values () =
  List.iter
    (fun (threads, chunk, window) ->
      let k = Kernels.Saxpy.kernel ~n:64 () in
      let checked = Kernels.Kernel.parse k in
      let it =
        Interp.create ~threads ~chunk_override:chunk
          ~interleave_window:window checked
      in
      Interp.exec it ~func:"init";
      Interp.exec it ~func:"saxpy";
      List.iter
        (fun i ->
          match Interp.read_global it "y" [ Interp.Idx i ] with
          | Value.V_float f ->
              check (Alcotest.float 1e-9)
                (Printf.sprintf "y[%d] t%d c%d w%d" i threads chunk window)
                ((0.5 *. float_of_int i) +. (2.5 *. float_of_int i))
                f
          | _ -> fail "not a float")
        [ 0; 1; 31; 63 ])
    [ (1, 1, 1); (2, 1, 1); (4, 3, 2); (8, 8, 4) ]

let test_interp_linreg_values () =
  let k = Kernels.Linreg_kernel.kernel ~nacc:8 ~m:64 () in
  let threads = 4 in
  let checked = Kernels.Kernel.parse k in
  let it = Interp.create ~threads checked in
  Interp.exec it ~func:"init";
  Interp.exec it ~func:"linear_regression";
  (* every unit j accumulates over i < 64/4 = 16 points *)
  let expected_sx = ref 0. and expected_sxy = ref 0. in
  for i = 0 to 15 do
    let x = 0.01 *. float_of_int i in
    let y = 3.0 +. (0.5 *. x) in
    expected_sx := !expected_sx +. x;
    expected_sxy := !expected_sxy +. (x *. y)
  done;
  List.iter
    (fun j ->
      (match Interp.read_global it "tid_args" [ Interp.Idx j; Interp.Fld "sx" ] with
      | Value.V_float f ->
          check (Alcotest.float 1e-9) (Printf.sprintf "sx[%d]" j) !expected_sx f
      | _ -> fail "sx");
      match
        Interp.read_global it "tid_args" [ Interp.Idx j; Interp.Fld "sxy" ]
      with
      | Value.V_float f ->
          check (Alcotest.float 1e-9) (Printf.sprintf "sxy[%d]" j)
            !expected_sxy f
      | _ -> fail "sxy")
    [ 0; 3; 7 ]

let test_interp_heat_values () =
  let k = Kernels.Heat.kernel ~rows:6 ~cols:10 () in
  let checked = Kernels.Kernel.parse k in
  let it = Interp.create ~threads:2 checked in
  Interp.exec it ~func:"init";
  Interp.exec it ~func:"heat_step";
  let a i j = (0.001 *. float_of_int i) +. (0.002 *. float_of_int j) in
  let expect i j = 0.25 *. (a (i-1) j +. a (i+1) j +. a i (j-1) +. a i (j+1)) in
  List.iter
    (fun (i, j) ->
      match Interp.read_global it "B" [ Interp.Idx i; Interp.Idx j ] with
      | Value.V_float f ->
          check (Alcotest.float 1e-9) (Printf.sprintf "B[%d][%d]" i j)
            (expect i j) f
      | _ -> fail "B")
    [ (1, 1); (2, 5); (4, 8) ];
  (* boundary untouched *)
  match Interp.read_global it "B" [ Interp.Idx 0; Interp.Idx 3 ] with
  | Value.V_float 0. -> ()
  | _ -> fail "boundary must remain zero"

let test_interp_reduction_clause () =
  let src =
    {|double a[32];
void init(void) {
  int i;
  for (i = 0; i < 32; i++) { a[i] = 1.0 * i; }
}
void f(void) {
  int i;
  double s;
  s = 100.0;
  #pragma omp parallel for reduction(+:s)
  for (i = 0; i < 32; i++) {
    s += a[i];
  }
  a[0] = s;
}
|}
  in
  let checked = checked_of src in
  let it = Interp.create ~threads:4 checked in
  Interp.exec it ~func:"init";
  Interp.exec it ~func:"f";
  match Interp.read_global it "a" [ Interp.Idx 0 ] with
  | Value.V_float f ->
      (* 100 + sum 0..31 = 100 + 496 *)
      check (Alcotest.float 1e-9) "reduction" 596. f
  | _ -> fail "reduction result"

let test_interp_if_and_locals () =
  let src =
    {|int out[8];
void f(void) {
  int i;
  for (i = 0; i < 8; i++) {
    int v = i * 2;
    if (v >= 8) { out[i] = v; } else { out[i] = 0 - v; }
  }
}
|}
  in
  let checked = checked_of src in
  let it = Interp.create checked in
  Interp.exec it ~func:"f";
  (match Interp.read_global it "out" [ Interp.Idx 2 ] with
  | Value.V_int (-4) -> ()
  | v -> fail (Format.asprintf "out[2] = %a" Value.pp v));
  match Interp.read_global it "out" [ Interp.Idx 5 ] with
  | Value.V_int 10 -> ()
  | _ -> fail "out[5]"

let test_interp_out_of_bounds () =
  let src = "int a[4];\nvoid f(void) { a[7] = 1; }" in
  let checked = checked_of src in
  let it = Interp.create checked in
  match Interp.exec it ~func:"f" with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "out of bounds must raise"

let test_interp_errors () =
  let checked = checked_of "int a;\nvoid g(int x) { a = x; }" in
  let it = Interp.create checked in
  (match Interp.exec it ~func:"g" with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "parameterized function rejected");
  match Interp.exec it ~func:"nope" with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "unknown function"

(* ------------------------------------------------------------------ *)
(* Run / measurement                                                   *)
(* ------------------------------------------------------------------ *)

let small_saxpy = Kernels.Saxpy.kernel ~n:512 ()

let test_measure_deterministic () =
  let m1 = Run.measure ~threads:4 ~chunk:1 small_saxpy in
  let m2 = Run.measure ~threads:4 ~chunk:1 small_saxpy in
  check (Alcotest.float 0.) "deterministic wall" m1.Run.wall_cycles
    m2.Run.wall_cycles;
  check Alcotest.int "deterministic misses"
    (Cachesim.Stats.misses m1.Run.stats)
    (Cachesim.Stats.misses m2.Run.stats)

let test_measure_exact_access_counts () =
  (* saxpy body: read x[i], read y[i] (compound), write y[i] *)
  let m = Run.measure ~threads:2 ~chunk:1 small_saxpy in
  check Alcotest.int "loads" (2 * 512) m.Run.stats.Cachesim.Stats.loads;
  check Alcotest.int "stores" 512 m.Run.stats.Cachesim.Stats.stores

let test_measure_fs_effect_positive () =
  let c = Run.measured_fs_percent ~threads:4 small_saxpy in
  check Alcotest.bool "chunk1 slower than chunk8" true
    (c.Run.fs.Run.wall_cycles > c.Run.nfs.Run.wall_cycles);
  check Alcotest.bool "percent positive" true (c.Run.percent > 0.);
  check Alcotest.bool "fs misses present" true
    (c.Run.fs.Run.stats.Cachesim.Stats.coherence_false > 0);
  check Alcotest.int "no fs misses with line-aligned chunks" 0
    c.Run.nfs.Run.stats.Cachesim.Stats.coherence_false

let test_measure_single_thread_no_coherence () =
  let m = Run.measure ~threads:1 ~chunk:1 small_saxpy in
  check Alcotest.int "no coherence misses" 0
    (Cachesim.Stats.coherence_misses m.Run.stats);
  check Alcotest.int "no invalidations" 0
    m.Run.stats.Cachesim.Stats.invalidations_sent

let test_measure_wall_is_max () =
  let m = Run.measure ~threads:4 ~chunk:1 small_saxpy in
  let mx = Array.fold_left Float.max 0. m.Run.per_thread_cycles in
  check (Alcotest.float 0.) "wall = max thread" mx m.Run.wall_cycles

let dyn_src kind =
  Printf.sprintf
    {|double a[100];
int count[100];
void f(void) {
  int i;
  #pragma omp parallel for private(i) schedule(%s)
  for (i = 0; i < 100; i++) {
    a[i] = 3.0 * i;
    count[i] += 1;
  }
}
|}
    kind

let test_dynamic_and_guided_schedules () =
  (* every iteration executes exactly once and computes the right value,
     whatever the schedule *)
  List.iter
    (fun kind ->
      let checked = checked_of (dyn_src kind) in
      let it = Interp.create ~threads:4 checked in
      Interp.exec it ~func:"f";
      List.iter
        (fun i ->
          (match Interp.read_global it "count" [ Interp.Idx i ] with
          | Value.V_int 1 -> ()
          | Value.V_int n ->
              fail (Printf.sprintf "%s: count[%d] = %d" kind i n)
          | _ -> fail "count type");
          match Interp.read_global it "a" [ Interp.Idx i ] with
          | Value.V_float f ->
              check (Alcotest.float 1e-9)
                (Printf.sprintf "%s a[%d]" kind i)
                (3.0 *. float_of_int i)
                f
          | _ -> fail "a type")
        [ 0; 1; 37; 99 ])
    [ "dynamic"; "dynamic,7"; "guided"; "guided,3" ]

let test_dynamic_spreads_work () =
  (* compound update under dynamic scheduling and windowed interleaving *)
  let src =
    {|double x[64];
double y[64];
void init(void) {
  int i;
  for (i = 0; i < 64; i++) { x[i] = 1.0 * i; y[i] = 0.5 * i; }
}
void saxpy(void) {
  int i;
  #pragma omp parallel for private(i) schedule(dynamic,2)
  for (i = 0; i < 64; i++) {
    y[i] += 2.5 * x[i];
  }
}
|}
  in
  let checked = checked_of src in
  let it = Interp.create ~threads:4 checked in
  Interp.exec it ~func:"init";
  Interp.exec it ~func:"saxpy";
  match Interp.read_global it "y" [ Interp.Idx 33 ] with
  | Value.V_float f -> check (Alcotest.float 1e-9) "y[33]" (33. *. 3.0) f
  | _ -> fail "float"

let test_model_replays_dynamic () =
  (* a schedule(dynamic) pragma is replayed at seed 0 instead of being
     rejected: the run matches an explicit sched override at seed 0 *)
  let checked = checked_of (dyn_src "dynamic") in
  let nest =
    Loopir.Lower.lower checked ~func:"f" ~params:[ ("num_threads", 4) ]
  in
  let cfg = Fsmodel.Model.default_config ~threads:4 () in
  let pragma = Fsmodel.Model.run cfg ~nest ~checked in
  let explicit =
    Fsmodel.Model.run
      {
        cfg with
        Fsmodel.Model.sched =
          Some (Ompsched.Dispatch.Dynamic { chunk = 1 }, 0);
      }
      ~nest ~checked
  in
  check Alcotest.int "pragma replay = explicit seed 0"
    explicit.Fsmodel.Model.fs_cases pragma.Fsmodel.Model.fs_cases

let test_window_reduces_fs () =
  (* larger interleave window batches a thread's writes to a line, so FS
     misses cannot increase *)
  let w1 = Run.measure ~interleave_window:1 ~threads:2 ~chunk:1 small_saxpy in
  let w8 = Run.measure ~interleave_window:8 ~threads:2 ~chunk:1 small_saxpy in
  check Alcotest.bool "window batches transfers" true
    (w8.Run.stats.Cachesim.Stats.coherence_false
    <= w1.Run.stats.Cachesim.Stats.coherence_false)

let test_exec_twice_accumulates () =
  (* compiled functions are cached and re-runnable; the compound update
     accumulates across runs *)
  let k = Kernels.Saxpy.kernel ~n:32 () in
  let checked = Kernels.Kernel.parse k in
  let it = Interp.create ~threads:2 checked in
  Interp.exec it ~func:"init";
  Interp.exec it ~func:"saxpy";
  Interp.exec it ~func:"saxpy";
  match Interp.read_global it "y" [ Interp.Idx 9 ] with
  | Value.V_float f ->
      check (Alcotest.float 1e-9) "two updates" ((0.5 +. 5.0) *. 9.) f
  | _ -> fail "float"

let test_read_global_errors () =
  let checked = checked_of "struct s { int a; };\nstruct s v[2];\nint g;\n" in
  let it = Interp.create checked in
  (match Interp.read_global it "zzz" [] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "unknown global");
  (match Interp.read_global it "v" [ Interp.Idx 5 ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "oob");
  (match Interp.read_global it "g" [ Interp.Fld "a" ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "field of scalar");
  match Interp.read_global it "g" [] with
  | Value.V_int 0 -> ()
  | _ -> fail "zero-initialized"

let test_while_break_continue () =
  let src =
    {|int out[16];
int evens;
void f(void) {
  int i;
  i = 0;
  while (1) {
    if (i >= 16) { break; }
    out[i] = i * i;
    i = i + 1;
  }
  evens = 0;
  for (i = 0; i < 16; i++) {
    if (i % 2 == 1) { continue; }
    evens = evens + 1;
  }
  out[0] = evens;
}
|}
  in
  let checked = checked_of src in
  let it = Interp.create checked in
  Interp.exec it ~func:"f";
  (match Interp.read_global it "out" [ Interp.Idx 5 ] with
  | Value.V_int 25 -> ()
  | v -> fail (Format.asprintf "out[5] = %a" Value.pp v));
  (match Interp.read_global it "out" [ Interp.Idx 15 ] with
  | Value.V_int 225 -> ()
  | _ -> fail "while covered all 16");
  match Interp.read_global it "out" [ Interp.Idx 0 ] with
  | Value.V_int 8 -> ()
  | v -> fail (Format.asprintf "evens = %a" Value.pp v)

let test_break_in_parallel_rejected () =
  let src =
    "int a[8];\nvoid f(void) {\n#pragma omp parallel for\nfor (int i = 0; i < 8; i++) { if (i == 3) { break; } a[i] = 1; } }"
  in
  let checked = checked_of src in
  let it = Interp.create ~threads:2 checked in
  match Interp.exec it ~func:"f" with
  | exception Interp.Runtime_error _ -> ()
  | _ -> fail "break out of a worksharing loop must be rejected"

let test_continue_in_parallel_ok () =
  let src =
    "int a[16];\nvoid f(void) {\n#pragma omp parallel for schedule(static,1)\nfor (int i = 0; i < 16; i++) { if (i % 4 == 0) { continue; } a[i] = i; } }"
  in
  let checked = checked_of src in
  let it = Interp.create ~threads:4 checked in
  Interp.exec it ~func:"f";
  (match Interp.read_global it "a" [ Interp.Idx 8 ] with
  | Value.V_int 0 -> ()
  | _ -> fail "skipped iteration");
  match Interp.read_global it "a" [ Interp.Idx 9 ] with
  | Value.V_int 9 -> ()
  | _ -> fail "executed iteration"

let test_triangular_loop () =
  (* inner bound depends on the parallel variable *)
  let src =
    {|double a[16][16];
double rowsum[16];
void f(void) {
  int i;
  int j;
  #pragma omp parallel for private(i,j) schedule(static,1)
  for (i = 0; i < 16; i++) {
    for (j = 0; j <= i; j++) {
      rowsum[i] += 1.0;
    }
  }
}
|}
  in
  let checked = checked_of src in
  let it = Interp.create ~threads:4 checked in
  Interp.exec it ~func:"f";
  List.iter
    (fun i ->
      match Interp.read_global it "rowsum" [ Interp.Idx i ] with
      | Value.V_float f ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "rowsum[%d]" i)
            (float_of_int (i + 1))
            f
      | _ -> fail "float")
    [ 0; 7; 15 ]

(* ------------------------------------------------------------------ *)
(* C conversions of locals                                             *)
(* ------------------------------------------------------------------ *)

let both_interps src ~threads ~func read =
  let checked = checked_of src in
  let it = Interp.create ~threads checked in
  Interp.exec it ~func;
  let rf = Interp_ref.create ~threads checked in
  Interp_ref.exec rf ~func;
  (read (Interp.memory it), read (Interp_ref.memory rf))

let global_addr src name =
  Loopir.Layout.addr_of (Loopir.Layout.make (checked_of src)) name

let test_int_local_truncates () =
  (* a float stored into an int local truncates, and the compound update
     computes in double then truncates again: 2.5 -> 2, 2 + 0.5 -> 2 *)
  let src = "int g;\nvoid f(void) { int x; x = 2.5; x += 0.5; g = x; }" in
  let addr = global_addr src "g" in
  let lib, oracle =
    both_interps src ~threads:1 ~func:"f"
      (Mem.load_int ~ty:Minic.Ast.Tint ~addr)
  in
  check Alcotest.int "library" 2 lib;
  check Alcotest.int "reference" 2 oracle

let test_int_reduction_exact () =
  (* 35 iterations of p *= 3 under static,12 at 4 threads: thread 3 gets
     no chunk, so its private copy is the identity it started from; an
     int identity keeps the fold in integers, 3^35 exactly *)
  let src =
    {|long g;
void f(void) {
  int i;
  long p = 1;
  #pragma omp parallel for reduction(*:p) schedule(static,12)
  for (i = 0; i < 35; i++) {
    p *= 3;
  }
  g = p;
}
|}
  in
  let addr = global_addr src "g" in
  let lib, oracle =
    both_interps src ~threads:4 ~func:"f"
      (Mem.load_int ~ty:Minic.Ast.Tlong ~addr)
  in
  check Alcotest.int "library" 50_031_545_098_999_707 lib;
  check Alcotest.int "reference" 50_031_545_098_999_707 oracle

(* ------------------------------------------------------------------ *)
(* Differential oracle: the library interpreter against the reference  *)
(* interpreter of test/interp_ref.ml, event by event                   *)
(* ------------------------------------------------------------------ *)

(* What a run shows: the sink events as ints (a tag, then the arguments;
   a cpu charge as the two halves of its float's bits), the steals, the
   error that ended the run, and the memory it left in both of Mem's
   views (bytes, and aligned doubles as bits). *)
type record = {
  events : int array;
  steals : int;
  error : string option;
  bytes : string;
  doubles : int64 array;
}

type events = { mutable buf : int array; mutable len : int }

let[@inline] room ev k =
  if ev.len + k > Array.length ev.buf then begin
    let b = Array.make (2 * Array.length ev.buf) 0 in
    Array.blit ev.buf 0 b 0 ev.len;
    ev.buf <- b
  end

let recorder () =
  let ev = { buf = Array.make 4096 0; len = 0 } in
  let sink =
    {
      Interp.mem_access =
        (fun ~tid ~addr ~size ~write ->
          room ev 5;
          let b = ev.buf and n = ev.len in
          b.(n) <- 0;
          b.(n + 1) <- tid;
          b.(n + 2) <- addr;
          b.(n + 3) <- size;
          b.(n + 4) <- Bool.to_int write;
          ev.len <- n + 5);
      cpu =
        (fun ~tid c ->
          room ev 4;
          let bits = Int64.bits_of_float c and b = ev.buf and n = ev.len in
          b.(n) <- 1;
          b.(n + 1) <- tid;
          b.(n + 2) <- Int64.to_int (Int64.shift_right_logical bits 32);
          b.(n + 3) <- Int64.to_int (Int64.logand bits 0xFFFF_FFFFL);
          ev.len <- n + 4);
      region_begin =
        (fun ~threads ->
          room ev 2;
          ev.buf.(ev.len) <- 2;
          ev.buf.(ev.len + 1) <- threads;
          ev.len <- ev.len + 2);
      region_end =
        (fun ~chunks_per_thread ->
          room ev 2;
          ev.buf.(ev.len) <- 3;
          ev.buf.(ev.len + 1) <- chunks_per_thread;
          ev.len <- ev.len + 2);
    }
  in
  (sink, fun () -> Array.sub ev.buf 0 ev.len)

let record_of ~events ~steals ~error mem =
  let n = Mem.size mem in
  {
    events;
    steals;
    error;
    bytes =
      String.init n (fun a ->
          Char.chr (Mem.load_int mem ~ty:Minic.Ast.Tchar ~addr:a));
    doubles =
      (let reg = Float.Array.make 1 0. in
       Array.init ((n + 7) / 8) (fun i ->
           Mem.load_float mem ~ty:Minic.Ast.Tdouble ~addr:(8 * i) reg 0;
           Int64.bits_of_float (Float.Array.get reg 0)));
  }

let run_funcs exec funcs =
  try
    List.iter exec funcs;
    None
  with
  | Interp.Runtime_error m -> Some m
  | Interp_ref.Runtime_error m -> Some m
  | Division_by_zero -> Some "Division_by_zero"

type config = {
  threads : int;
  chunk : int option;
  sched : (Ompsched.Dispatch.kind * int) option;
}

let run_library cfg checked funcs =
  let sink, events = recorder () in
  let it =
    Interp.create ~threads:cfg.threads ?chunk_override:cfg.chunk
      ?sched_override:cfg.sched ~sink checked
  in
  let error = run_funcs (fun func -> Interp.exec it ~func) funcs in
  record_of ~events:(events ()) ~steals:(Interp.steals it) ~error
    (Interp.memory it)

let run_reference cfg checked funcs =
  let sink, events = recorder () in
  let it =
    Interp_ref.create ~threads:cfg.threads ?chunk_override:cfg.chunk
      ?sched_override:cfg.sched ~sink checked
  in
  let error = run_funcs (fun func -> Interp_ref.exec it ~func) funcs in
  record_of ~events:(events ()) ~steals:(Interp_ref.steals it) ~error
    (Interp_ref.memory it)

let first_difference a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then if Array.length a = Array.length b then None else Some n
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  go 0

let show_events a i =
  let lo = max 0 (i - 6) and hi = min (Array.length a) (i + 6) in
  String.concat " "
    (List.map string_of_int (Array.to_list (Array.sub a lo (hi - lo))))

let agree what cfg checked funcs =
  let lib = run_library cfg checked funcs
  and ref_ = run_reference cfg checked funcs in
  let where =
    Printf.sprintf "%s t=%d chunk=%s%s" what cfg.threads
      (match cfg.chunk with Some c -> string_of_int c | None -> "pragma")
      (match cfg.sched with
      | Some (k, seed) ->
          Printf.sprintf " %s seed %d" (Ompsched.Dispatch.kind_name k) seed
      | None -> "")
  in
  (match first_difference lib.events ref_.events with
  | None -> ()
  | Some i ->
      Alcotest.failf "%s: events differ at %d of %d/%d:\n lib %s\n ref %s"
        where i (Array.length lib.events) (Array.length ref_.events)
        (show_events lib.events i) (show_events ref_.events i));
  check Alcotest.(option string) (where ^ ": error") ref_.error lib.error;
  check Alcotest.int (where ^ ": steals") ref_.steals lib.steals;
  check Alcotest.bool (where ^ ": memory bytes") true (lib.bytes = ref_.bytes);
  check Alcotest.bool (where ^ ": memory doubles") true
    (lib.doubles = ref_.doubles)

let oracle_kernels () =
  [
    Kernels.Heat.kernel ~rows:4 ~cols:50 ();
    Kernels.Dft.kernel ~freqs:2 ~samples:96 ();
    Kernels.Linreg_kernel.kernel ~nacc:24 ~m:48 ();
    Kernels.Saxpy.kernel ~n:96 ();
    Kernels.Stencil1d.kernel ~n:96 ~steps:2 ();
    Kernels.Matvec.kernel ~rows:24 ~cols:16 ();
    Kernels.Transpose.kernel ~n:12 ();
  ]
  @ Kernels.Registry.micros ()

let test_oracle_kernels () =
  check Alcotest.int "every registry kernel"
    (List.length (Kernels.Registry.all ()))
    (List.length (oracle_kernels ()) - List.length (Kernels.Registry.micros ()));
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let checked = Kernels.Kernel.parse k in
      let funcs = Option.to_list k.Kernels.Kernel.init_func @ [ k.func ] in
      List.iter
        (fun threads ->
          List.iter
            (fun chunk -> agree k.name { threads; chunk; sched = None } checked funcs)
            [ None; Some k.fs_chunk; Some k.nfs_chunk ];
          List.iter
            (fun kind ->
              List.iter
                (fun seed ->
                  agree k.name
                    { threads; chunk = None; sched = Some (kind, seed) }
                    checked funcs)
                [ 0; 1; 2 ])
            Ompsched.Dispatch.
              [
                Dynamic { chunk = 1 };
                Guided { min_chunk = 2 };
                Work_stealing { chunk = 2 };
              ])
        [ 1; 2; 3; 8; 48 ])
    (oracle_kernels ())

let c_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_oracle_programs () =
  let files =
    List.filter
      (fun f ->
        not (String.starts_with ~prefix:"bad_" (Filename.basename f)))
      (c_files "fixtures")
    @ c_files "corpus"
  in
  check Alcotest.bool "fixtures and corpus found" true (List.length files > 20);
  List.iter
    (fun path ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      let checked = checked_of src in
      let funcs =
        List.filter_map
          (fun (f : Minic.Ast.func) ->
            if f.Minic.Ast.params = [] then Some f.Minic.Ast.fname else None)
          (Minic.Ast.funcs checked.Minic.Typecheck.prog)
      in
      List.iter
        (fun threads ->
          agree path { threads; chunk = None; sched = None } checked funcs)
        [ 1; 3; 8 ])
    files

(* programs that reach the less common paths: statement expressions,
   the generic evaluation order, conversions into locals and locations,
   subscripts that read memory, span several locals or are not affine,
   errors mid-run *)
let edge_programs =
  [
    {|double a[16]; double b[16]; int h[8]; int d[16]; long g;
void f(void) {
  int i;
  for (i = 0; i < 16; i++) { a[i] = 0.5 * i - 3.0; d[i] = (i * 5) % 8; }
  for (i = 0; i < 16; i++) {
    a[i] + b[i];
    pow(a[i], b[15 - i]);
    fmax(a[i], a[(i + 3) % 16]) < fmin(b[i], a[i]);
    h[d[i]] += 1;
    b[d[i] + 1] = a[i / 2] * a[i * i % 16];
  }
  g = h[0] + h[3];
}
|};
    {|int g; double x; int out[8];
void f(void) {
  int i;
  double s;
  int k = 7.9;
  double t = 3;
  s = 2;
  s += k / 2;
  k *= 1.5;
  k -= t;
  x = s + k + t;
  g = x;
  for (i = 0; i < 8; i++) { out[i] = x / (i + 1); out[i] += 0.75 * i; }
}
|};
    {|double a[64]; int c[64]; double tot; long prod;
void f(void) {
  int i;
  double s = 1.0;
  long p = 2;
  int n = 0;
  #pragma omp parallel for reduction(+:s) reduction(*:p) reduction(-:n) schedule(dynamic,3)
  for (i = 0; i < 40; i++) {
    s += a[i] + i;
    if (i % 7 == 0) { p *= 2; }
    n -= 1;
  }
  tot = s;
  prod = p + n;
}
|};
    {|struct pt { double x; char tag; int w[3]; };
struct pt ps[12]; char flags[40]; int grid[6][7];
void f(void) {
  int i;
  int j;
  #pragma omp parallel for private(j) schedule(guided,2)
  for (i = 0; i < 12; i++) {
    ps[i].x = ps[i].x + 1.5 * i;
    ps[i].tag = i * 37;
    for (j = 0; j < 3; j++) { ps[i].w[j] = ps[i].w[2 - j] + i - j; }
    flags[3 * i + num_threads % 3] = 1;
  }
  for (i = 0; i < 6; i++) {
    j = 0;
    while (1) {
      if (j >= 7) { break; }
      if ((i + j) % 3 == 1) { j = j + 1; continue; }
      grid[i][j] = grid[i][(j + 1) % 7] + ps[2 * i].tag;
      j = j + 1;
    }
  }
}
|};
    {|double a[10][10]; int idx[4];
void f(void) {
  int i;
  int j;
  for (i = 0; i < 4; i++) { idx[i] = 3 * i; }
  for (i = 0; i < 10; i++) {
    for (j = 0; j <= i; j++) { a[i][j] = a[j][i] + a[idx[j % 4]][i]; }
  }
  a[idx[1] + 20][i] = 1.0;
}
|};
    {|double a[10][4];
void f(void) {
  int i;
  for (i = 0; i < 10; i++) { a[i][2] = a[i + 1][2] + 1.0; }
}
|};
    {|double a[8]; int d[8]; int z; int k;
void f(void) {
  int i;
  for (i = 0; i < 8; i++) { a[i] = a[(i + 1) % 8] + 1.0; d[i] = i; }
  a[0] / z;
  a[1] = a[2] + a[3] / (z * a[4]);
  k = d[1] / z;
}
|};
    {|double a[8]; int d[8]; int z;
void f(void) {
  int i;
  for (i = 0; i < 8; i++) { a[i] = i; d[i] = i; }
  i = a[3] + a[1] / z;
  d[0] / z;
}
|};
    {|int d[4]; int z;
void f(void) {
  d[1] = 5;
  d[2] /= z;
}
|};
    {|double a[16]; double r; int n;
void f(void) {
  int i;
  int k = 0;
  double q = 0.0 / 0.0;
  for (i = 0; i < 16; i++) { a[i] = sqrt(i - 8.0); }
  for (i = 0; i < 16; i++) {
    if (a[i] < q || a[i] != a[i]) { n += 1; }
    a[i] < q;
    (a[i] == a[i]) + 0.5;
    (a[i] == a[i]) && r;
    k += (a[i] == a[i]) + 0.5;
    r = r + (a[i] >= q) + fabs(a[i]) * exp(0.0 - i) + log(1.0 + i);
  }
  n = n + k;
}
|};
    {|double a[10][10];
void f(void) {
  int i;
  for (i = 0; i < 12; i++) { a[i][i] = a[i][i] + 1.0; }
}
|};
    {|int g; double a[40];
void f(void) {
  g = 3;
  #pragma omp parallel for schedule(static,2)
  for (g = 0; g < 40; g += 3) { a[g] = g * 2.0; }
  a[1] = g;
}
|};
    {|double a[32]; double b[32];
void f(void) {
  int i;
  int j;
  #pragma omp parallel for private(j) schedule(static,1)
  for (i = 0; i < 8; i++) {
    #pragma omp parallel for schedule(static,2)
    for (j = 0; j < 4; j++) { a[4 * i + j] = b[4 * j + i % 4] + i; }
  }
  #pragma omp parallel for schedule(static,3)
  for (i = 0; i < 32; i++) {
    if (i == 20) { return; }
    b[i] = a[31 - i] - 1.0;
  }
}
|};
    {|double a[40]; int c[3][4][5];
void f(void) {
  int i;
  int j;
  int k;
  #pragma omp parallel for private(j, k) schedule(static,1)
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 4; j++) {
      for (k = 0; k < 5; k++) { c[i][j][k] += i - j + k; }
    }
  }
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 4; j++) {
      for (k = 0; k < 5; k++) { a[2 * i + j - k + 5] -= c[i][j][k] * 0.5; }
    }
  }
  for (i = 0; i < 30; i++) { a[i + j + 2 * k] += 1.0; }
}
|};
  ]

let test_oracle_edge_programs () =
  List.iteri
    (fun n src ->
      let checked = checked_of src in
      List.iter
        (fun (threads, chunk) ->
          agree
            (Printf.sprintf "edge program %d" n)
            { threads; chunk; sched = None } checked [ "f" ])
        [ (1, None); (3, None); (4, Some 2); (8, Some 1) ])
    edge_programs

let prop_oracle_fuzz =
  QCheck2.Test.make ~name:"library = reference on fuzz programs" ~count:500
    ~print:(fun (index, threads, chunk) ->
      Printf.sprintf "spec %d, %d threads, chunk %d:\n%s" index threads chunk
        (Fuzz.Spec.to_source (Fuzz.Gen.spec ~seed:3 ~index)))
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 8) (int_range 0 4))
    (fun (index, threads, chunk) ->
      let checked =
        checked_of (Fuzz.Spec.to_source (Fuzz.Gen.spec ~seed:3 ~index))
      in
      let chunk = if chunk = 0 then None else Some chunk in
      agree "fuzz" { threads; chunk; sched = None } checked [ "f" ];
      true)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_kernel_phase_allocation () =
  (* the simulated-access path allocates nothing: compiling the kernel
     and setting up its parallel regions is all the kernel phase may
     allocate, well under 0.1 minor words per access at the quick
     sizes *)
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let accesses = ref 0 in
      let sink =
        {
          Interp.null_sink with
          Interp.mem_access = (fun ~tid:_ ~addr:_ ~size:_ ~write:_ -> incr accesses);
        }
      in
      let it =
        Interp.create ~threads:8 ~chunk_override:k.Kernels.Kernel.fs_chunk ~sink
          (Kernels.Kernel.parse k)
      in
      Option.iter (fun func -> Interp.exec it ~func) k.init_func;
      accesses := 0;
      let before = Gc.minor_words () in
      Interp.exec it ~func:k.func;
      let words = Gc.minor_words () -. before in
      let per_access = words /. float_of_int !accesses in
      if !accesses = 0 || per_access > 0.1 then
        Alcotest.failf "%s: %.0f minor words over %d accesses (%.3f per access)"
          k.name words !accesses per_access)
    [
      Kernels.Heat.kernel ~rows:10 ~cols:7682 ();
      Kernels.Dft.kernel ~freqs:8 ~samples:7680 ();
      Kernels.Linreg_kernel.kernel ~nacc:1200 ~m:256 ();
    ]

let () =
  Alcotest.run "execsim"
    [
      ( "value",
        [
          Alcotest.test_case "binops" `Quick test_value_binops;
          Alcotest.test_case "convert" `Quick test_value_convert;
          Alcotest.test_case "builtins" `Quick test_value_builtin;
        ] );
      ("mem", [ Alcotest.test_case "roundtrip" `Quick test_mem_roundtrip ]);
      ( "interp",
        [
          Alcotest.test_case "saxpy values" `Quick test_interp_saxpy_values;
          Alcotest.test_case "linreg values" `Quick test_interp_linreg_values;
          Alcotest.test_case "heat values" `Quick test_interp_heat_values;
          Alcotest.test_case "reduction clause" `Quick
            test_interp_reduction_clause;
          Alcotest.test_case "if + locals" `Quick test_interp_if_and_locals;
          Alcotest.test_case "bounds check" `Quick test_interp_out_of_bounds;
          Alcotest.test_case "errors" `Quick test_interp_errors;
          Alcotest.test_case "int local truncates" `Quick
            test_int_local_truncates;
          Alcotest.test_case "int reduction exact" `Quick
            test_int_reduction_exact;
          Alcotest.test_case "kernel phase allocation" `Quick
            test_kernel_phase_allocation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "registry and micro kernels" `Quick
            test_oracle_kernels;
          Alcotest.test_case "fixtures and corpus" `Quick test_oracle_programs;
          Alcotest.test_case "edge programs" `Quick test_oracle_edge_programs;
          QCheck_alcotest.to_alcotest prop_oracle_fuzz;
        ] );
      ( "run",
        [
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "exact access counts" `Quick
            test_measure_exact_access_counts;
          Alcotest.test_case "fs effect positive" `Quick
            test_measure_fs_effect_positive;
          Alcotest.test_case "single thread" `Quick
            test_measure_single_thread_no_coherence;
          Alcotest.test_case "wall is max" `Quick test_measure_wall_is_max;
          Alcotest.test_case "window reduces fs" `Quick test_window_reduces_fs;
          Alcotest.test_case "dynamic and guided schedules" `Quick
            test_dynamic_and_guided_schedules;
          Alcotest.test_case "dynamic compound update" `Quick
            test_dynamic_spreads_work;
          Alcotest.test_case "model replays dynamic" `Quick
            test_model_replays_dynamic;
          Alcotest.test_case "exec twice accumulates" `Quick
            test_exec_twice_accumulates;
          Alcotest.test_case "read_global errors" `Quick
            test_read_global_errors;
          Alcotest.test_case "triangular inner bound" `Quick
            test_triangular_loop;
          Alcotest.test_case "while/break/continue" `Quick
            test_while_break_continue;
          Alcotest.test_case "break in parallel rejected" `Quick
            test_break_in_parallel_rejected;
          Alcotest.test_case "continue in parallel" `Quick
            test_continue_in_parallel_ok;
        ] );
    ]
