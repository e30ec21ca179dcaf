(* Tests for the mini-C frontend: preprocessor, lexer, parser, type layout,
   typechecker, pretty-printer. *)

open Minic

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Preprocessor                                                        *)
(* ------------------------------------------------------------------ *)

let test_preproc_basic () =
  let macros, cleaned = Preproc.run "#define N 10\nint a[N];\n" in
  check (Alcotest.option Alcotest.int) "N" (Some 10) (Preproc.lookup macros "N");
  check Alcotest.bool "define line blanked" true
    (not (String.length cleaned > 0 && String.contains cleaned '#'))

let test_preproc_expr () =
  let macros, _ = Preproc.run "#define N 10\n#define M (N * 2 + 4)\n" in
  check (Alcotest.option Alcotest.int) "M" (Some 24) (Preproc.lookup macros "M")

let test_preproc_shadowing () =
  let macros, _ = Preproc.run "#define N 1\n#define N 2\n" in
  check (Alcotest.option Alcotest.int) "latest wins" (Some 2)
    (Preproc.lookup macros "N")

let test_preproc_line_numbers_preserved () =
  let _, cleaned = Preproc.run "#define A 1\nint x;\n" in
  let lines = String.split_on_char '\n' cleaned in
  check Alcotest.string "second line intact" "int x;" (List.nth lines 1)

let test_preproc_function_macro_rejected () =
  match Preproc.run "#define F(x) x\n" with
  | exception Preproc.Error (_, 1) -> ()
  | _ -> fail "expected Preproc.Error"

let test_preproc_undefined_macro () =
  match Preproc.run "#define A B\n" with
  | exception Preproc.Error (_, _) -> ()
  | _ -> fail "expected error for undefined macro in body"

let test_eval_const_expr () =
  let macros, _ = Preproc.run "#define N 6\n" in
  check Alcotest.int "const expr" 13 (Preproc.eval_const_expr macros "2*N+1");
  check Alcotest.int "division" 3 (Preproc.eval_const_expr macros "N / 2");
  check Alcotest.int "unary minus" (-6) (Preproc.eval_const_expr macros "-N");
  check Alcotest.int "parens" 36 (Preproc.eval_const_expr macros "(N + N) * 3");
  check Alcotest.int "modulo" 2 (Preproc.eval_const_expr macros "N % 4");
  (match Preproc.eval_const_expr macros "N N" with
  | exception Preproc.Error _ -> ()
  | _ -> fail "trailing token must be rejected");
  match Preproc.eval_const_expr macros "N / 0" with
  | exception Preproc.Error _ -> ()
  | _ -> fail "division by zero must be rejected"

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks s = List.map (fun { Token.tok; _ } -> tok) (Lexer.tokenize s)

let test_lexer_basic () =
  check Alcotest.int "count" 6 (List.length (toks "int a = 3;"));
  match toks "x += 2.5e3;" with
  | [ Token.IDENT "x"; Token.PLUSEQ; Token.FLOAT_LIT f; Token.SEMI; Token.EOF ]
    ->
      check (Alcotest.float 0.001) "float" 2500.0 f
  | _ -> fail "unexpected tokens"

let test_lexer_comments () =
  check Alcotest.int "line comment" 2 (List.length (toks "// hi\nx"));
  check Alcotest.int "block comment" 2 (List.length (toks "/* a\nb */x"))

let test_lexer_pragma () =
  match toks "#pragma omp parallel for\nx;" with
  | Token.PRAGMA p :: _ ->
      check Alcotest.string "pragma text" "omp parallel for" p
  | _ -> fail "expected PRAGMA first"

let test_lexer_two_char_ops () =
  match toks "a <= b && c != d" with
  | [ Token.IDENT "a"; Token.LE; Token.IDENT "b"; Token.AMPAMP;
      Token.IDENT "c"; Token.NE; Token.IDENT "d"; Token.EOF ] ->
      ()
  | _ -> fail "bad two-char operators"

let test_lexer_int_suffix () =
  match toks "100L" with
  | [ Token.INT_LIT 100; Token.EOF ] -> ()
  | _ -> fail "suffix not swallowed"

let test_lexer_float_forms () =
  (match toks ".5" with
  | [ Token.FLOAT_LIT f; Token.EOF ] ->
      check (Alcotest.float 1e-9) "leading dot" 0.5 f
  | _ -> fail ".5");
  (match toks "1e3" with
  | [ Token.FLOAT_LIT f; Token.EOF ] ->
      check (Alcotest.float 1e-9) "exponent" 1000. f
  | _ -> fail "1e3");
  match toks "2.5e-2" with
  | [ Token.FLOAT_LIT f; Token.EOF ] ->
      check (Alcotest.float 1e-9) "negative exponent" 0.025 f
  | _ -> fail "2.5e-2"

let test_lexer_errors () =
  (match toks "a @ b" with
  | exception Lexer.Error (_, 1) -> ()
  | _ -> fail "expected lexer error");
  match toks "/* open" with
  | exception Lexer.Error (_, 1) -> ()
  | _ -> fail "expected unterminated comment error"

let test_lexer_line_numbers () =
  let located = Lexer.tokenize "a\nb\nc" in
  let lines = List.map (fun { Token.line; _ } -> line) located in
  check (Alcotest.list Alcotest.int) "lines" [ 1; 2; 3; 3 ] lines

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_e s = Parser.parse_expr_string [] s

let test_parser_precedence () =
  (match parse_e "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, _, _)) -> ()
  | _ -> fail "mul binds tighter than add");
  (match parse_e "a < b + 1 && c" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, _, _), Ast.Ident "c") -> ()
  | _ -> fail "&& loosest");
  match parse_e "-a * b" with
  | Ast.Binop (Ast.Mul, Ast.Unop (Ast.Neg, _), _) -> ()
  | _ -> fail "unary binds tighter than mul"

let test_parser_postfix () =
  match parse_e "a[i+1].x" with
  | Ast.Field (Ast.Index (Ast.Ident "a", Ast.Binop (Ast.Add, _, _)), "x") -> ()
  | _ -> fail "postfix chain"

let test_parser_call () =
  match parse_e "pow(x, 2.0)" with
  | Ast.Call ("pow", [ Ast.Ident "x"; Ast.Float_lit 2.0 ]) -> ()
  | _ -> fail "call args"

let test_parser_macro_folding () =
  match Parser.parse_expr_string [ ("N", 5) ] "N + 1" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 5, Ast.Int_lit 1) -> ()
  | _ -> fail "macro must fold to literal"

let test_parser_program () =
  let src =
    {|#define N 4
struct p { double x; double y; };
struct p pts[N];
double total;
void f(void) {
  int i;
  for (i = 0; i < N; i++) {
    total += pts[i].x;
  }
}
|}
  in
  let prog = Parser.parse_program src in
  check Alcotest.int "globals" 4 (List.length prog.Ast.globals);
  check Alcotest.int "structs" 1 (List.length (Ast.struct_defs prog));
  check Alcotest.bool "func exists" true (Ast.find_func prog "f" <> None)

let test_parser_for_step_forms () =
  let forms =
    [ "i++"; "i += 2"; "i = i + 2"; "i = 2 + i" ]
  in
  List.iter
    (fun step ->
      let src =
        Printf.sprintf "int a[100];\nvoid f(void) { int i; for (i = 0; i < 10; %s) { a[i] = 1; } }" step
      in
      ignore (Parser.parse_program src))
    forms

let test_parser_decl_in_for_init () =
  let src = "int a[10];\nvoid f(void) { for (int i = 0; i < 10; i++) { a[i] = i; } }" in
  ignore (Parser.parse_program src)

let test_parser_2d_array () =
  let src = "double m[3][4];\n" in
  let prog = Parser.parse_program src in
  match Ast.global_vars prog with
  | [ ("m", Ast.Tarray (Ast.Tarray (Ast.Tdouble, 4), 3)) ] -> ()
  | _ -> fail "outermost dimension first"

let test_parser_pragma_clauses () =
  let p =
    Parser.parse_pragma [ ("C", 4) ]
      "omp parallel for private(i, j) shared(a) reduction(+:s) \
       schedule(static, C) num_threads(8) nowait"
      1
  in
  check (Alcotest.list Alcotest.string) "private" [ "i"; "j" ]
    p.Ast.private_vars;
  check (Alcotest.list Alcotest.string) "shared" [ "a" ] p.Ast.shared_vars;
  (match p.Ast.reduction with
  | [ (Ast.Add, [ "s" ]) ] -> ()
  | _ -> fail "reduction");
  (match p.Ast.schedule with
  | Some (Ast.Sched_static (Some 4)) -> ()
  | _ -> fail "schedule chunk from macro");
  check (Alcotest.option Alcotest.int) "num_threads" (Some 8) p.Ast.num_threads

let test_parser_pragma_schedule_default () =
  let p = Parser.parse_pragma [] "omp parallel for schedule(static)" 1 in
  match p.Ast.schedule with
  | Some (Ast.Sched_static None) -> ()
  | _ -> fail "schedule(static) without chunk"

let test_parser_pragma_schedule_kinds () =
  (match
     (Parser.parse_pragma [] "omp parallel for schedule(dynamic)" 1)
       .Ast.schedule
   with
  | Some (Ast.Sched_dynamic None) -> ()
  | _ -> fail "dynamic");
  (match
     (Parser.parse_pragma [] "omp parallel for schedule(dynamic, 4)" 1)
       .Ast.schedule
   with
  | Some (Ast.Sched_dynamic (Some 4)) -> ()
  | _ -> fail "dynamic with chunk");
  match
    (Parser.parse_pragma [] "omp parallel for schedule(guided, 2)" 1)
      .Ast.schedule
  with
  | Some (Ast.Sched_guided (Some 2)) -> ()
  | _ -> fail "guided with min chunk"

let test_parser_pragma_errors () =
  (match Parser.parse_pragma [] "omp parallel for schedule(auto)" 1 with
  | exception Parser.Error _ -> ()
  | _ -> fail "auto schedule must be rejected");
  (match Parser.parse_pragma [] "acc kernels" 1 with
  | exception Parser.Error _ -> ()
  | _ -> fail "non-omp pragma must be rejected");
  (* a chunk size below 1 is an error at the pragma's line *)
  List.iter
    (fun clause ->
      match Parser.parse_pragma [] ("omp parallel for " ^ clause) 7 with
      | exception Parser.Error (_, 7) -> ()
      | _ -> fail (clause ^ " must be rejected at line 7"))
    [ "schedule(static, 0)"; "schedule(dynamic, 2 - 3)"; "schedule(guided, 0)" ];
  match
    Parser.parse_program "int a[4];\nvoid f(void) {\n#pragma omp parallel for\n a[0] = 1; }"
  with
  | exception Parser.Error (_, _) -> ()
  | _ -> fail "pragma must precede a for"

let test_parser_error_position () =
  match Parser.parse_program "void f(void) { int x = ; }" with
  | exception Parser.Error (_, 1) -> ()
  | _ -> fail "expected parse error on line 1"

(* ------------------------------------------------------------------ *)
(* Ctypes / layout                                                     *)
(* ------------------------------------------------------------------ *)

let test_sizeof_scalars () =
  check Alcotest.int "char" 1 (Ctypes.sizeof [] Ast.Tchar);
  check Alcotest.int "int" 4 (Ctypes.sizeof [] Ast.Tint);
  check Alcotest.int "long" 8 (Ctypes.sizeof [] Ast.Tlong);
  check Alcotest.int "float" 4 (Ctypes.sizeof [] Ast.Tfloat);
  check Alcotest.int "double" 8 (Ctypes.sizeof [] Ast.Tdouble)

let test_sizeof_array () =
  check Alcotest.int "double[10]" 80
    (Ctypes.sizeof [] (Ast.Tarray (Ast.Tdouble, 10)));
  check Alcotest.int "int[3][5]" 60
    (Ctypes.sizeof [] (Ast.Tarray (Ast.Tarray (Ast.Tint, 5), 3)))

let test_struct_layout_padding () =
  (* char, double -> char at 0, 7 bytes padding, double at 8, size 16 *)
  let env = [ ("s", [ (Ast.Tchar, "c"); (Ast.Tdouble, "d") ]) ] in
  check Alcotest.int "offset c" 0 (Ctypes.field_offset env "s" "c");
  check Alcotest.int "offset d" 8 (Ctypes.field_offset env "s" "d");
  check Alcotest.int "size" 16 (Ctypes.sizeof env (Ast.Tstruct "s"));
  check Alcotest.int "align" 8 (Ctypes.alignof env (Ast.Tstruct "s"))

let test_struct_tail_padding () =
  (* double, char -> size rounded up to 16 *)
  let env = [ ("s", [ (Ast.Tdouble, "d"); (Ast.Tchar, "c") ]) ] in
  check Alcotest.int "size" 16 (Ctypes.sizeof env (Ast.Tstruct "s"))

let test_struct_of_five_doubles () =
  (* the linreg accumulator: 40 bytes, no padding *)
  let env =
    [ ("acc",
       [ (Ast.Tdouble, "sx"); (Ast.Tdouble, "sxx"); (Ast.Tdouble, "sy");
         (Ast.Tdouble, "syy"); (Ast.Tdouble, "sxy") ]) ]
  in
  check Alcotest.int "size" 40 (Ctypes.sizeof env (Ast.Tstruct "acc"));
  check Alcotest.int "sxy offset" 32 (Ctypes.field_offset env "acc" "sxy")

let test_ctypes_errors () =
  (match Ctypes.sizeof [] (Ast.Tstruct "nope") with
  | exception Ctypes.Unknown_struct "nope" -> ()
  | _ -> fail "unknown struct");
  let env = [ ("s", [ (Ast.Tint, "a") ]) ] in
  match Ctypes.field_offset env "s" "b" with
  | exception Ctypes.Unknown_field ("s", "b") -> ()
  | _ -> fail "unknown field"

(* ------------------------------------------------------------------ *)
(* Typecheck                                                           *)
(* ------------------------------------------------------------------ *)

let check_src src = Typecheck.check_program (Parser.parse_program src)

let expect_type_error name src =
  match check_src src with
  | exception Typecheck.Type_error _ -> ()
  | _ -> fail (name ^ ": expected Type_error")

let test_typecheck_good () =
  ignore
    (check_src
       {|struct p { double x; double y; };
struct p pts[8];
double out[8];
void f(void) {
  int i;
  for (i = 0; i < 8; i++) {
    out[i] = pts[i].x * 2.0 + sin(pts[i].y);
  }
}
|})

let test_typecheck_num_threads_implicit () =
  ignore
    (check_src
       "int a[64];\nvoid f(void) { int i; for (i = 0; i < 64 / num_threads; i++) { a[i] = i; } }")

let test_typecheck_errors () =
  expect_type_error "undeclared" "void f(void) { x = 1; }";
  expect_type_error "index non-array" "int a;\nvoid f(void) { a[0] = 1; }";
  expect_type_error "field non-struct" "int a;\nvoid f(void) { a.x = 1; }";
  expect_type_error "unknown field"
    "struct s { int a; };\nstruct s v;\nvoid f(void) { v.b = 1; }";
  expect_type_error "unknown struct" "struct nope v;\n";
  expect_type_error "dup global" "int a;\nint a;\n";
  expect_type_error "dup struct" "struct s { int a; };\nstruct s { int b; };\n";
  expect_type_error "mod float" "double d;\nvoid f(void) { d = 1.5 % 2; }";
  expect_type_error "unknown call" "void f(void) { frobnicate(1); }";
  expect_type_error "bad arity" "double d;\nvoid f(void) { d = sin(1.0, 2.0); }";
  expect_type_error "aggregate assign"
    "int a[4];\nint b[4];\nvoid f(void) { a = b; }";
  expect_type_error "mismatched step var"
    "int a[4];\nvoid f(void) { int i; int j; for (i = 0; i < 4; j++) { a[i] = 1; } }";
  expect_type_error "aggregate condition"
    "int a[4];\nvoid f(void) { if (a) { a[0] = 1; } }";
  expect_type_error "float loop var"
    "int a[4];\nvoid f(void) { double d; for (d = 0; d < 4; d++) { a[0] = 1; } }"

let test_locals_of_func () =
  let checked =
    check_src
      "int g;\nvoid f(void) { int x; double y = 1.0; for (int i = 0; i < 3; i++) { x = i; } }"
  in
  let f = Option.get (Ast.find_func checked.Typecheck.prog "f") in
  let locals = Typecheck.locals_of_func checked f in
  check Alcotest.bool "x" true (List.mem_assoc "x" locals);
  check Alcotest.bool "y" true (List.mem_assoc "y" locals);
  check Alcotest.bool "i" true (List.mem_assoc "i" locals);
  check Alcotest.bool "g not local" false (List.mem_assoc "g" locals)

(* ------------------------------------------------------------------ *)
(* Pretty round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let strip_prog (p : Ast.program) = (Ast.erase_spans p).Ast.globals

let test_pretty_roundtrip () =
  List.iter
    (fun src ->
      let p1 = Parser.parse_program src in
      let printed = Pretty.program_to_string p1 in
      let p2 =
        try Parser.parse_program printed
        with Parser.Error (m, l) ->
          fail (Printf.sprintf "reparse failed (%d: %s) of:\n%s" l m printed)
      in
      if strip_prog p1 <> strip_prog p2 then
        fail ("round-trip mismatch for:\n" ^ printed))
    [
      "int a[4];\nvoid f(void) { int i; for (i = 0; i < 4; i++) { a[i] += 2; } }";
      "struct s { double x; int n; };\nstruct s v[3];\nvoid g(void) { v[0].x = 1.5; }";
      "double d;\nvoid h(void) { if (d < 1.0) { d = d * 2.0; } else { d = 0.0; } }";
      "int a[8];\nvoid k(void) {\n#pragma omp parallel for private(i) schedule(static,2) num_threads(4)\nfor (int i = 0; i < 8; i++) { a[i] = i; } }";
      "int a[8];\nvoid k(void) {\n#pragma omp parallel for schedule(dynamic,3)\nfor (int i = 0; i < 8; i++) { a[i] = i; } }";
      "int a[8];\nvoid k(void) {\n#pragma omp parallel for schedule(guided) reduction(*:p)\nfor (int i = 0; i < 8; i++) { a[i] = i; } }";
      "double d;\nvoid m(void) { if (d < 0.0) { d = 0.0; } else if (d > 1.0) { d = 1.0; } else { d = 0.5; } }";
      "int n;\nvoid w(void) { int i; i = 0; while (i < 10) { if (i == 7) { break; } if (i == 2) { i = i + 2; continue; } n += i; i++; } }";
    ]

(* qcheck: random expressions survive print -> reparse *)
let expr_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun i -> Ast.Int_lit (abs i)) small_int;
            map (fun v -> Ast.Ident ("v" ^ string_of_int (abs v mod 4)))
              small_int ]
      else
        oneof
          [
            map (fun i -> Ast.Int_lit (abs i)) small_int;
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl
                 [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Lt; Ast.And ])
              (self (n / 2)) (self (n / 2));
            map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
            map2 (fun a i -> Ast.Index (a, i))
              (map (fun v -> Ast.Ident ("a" ^ string_of_int (abs v mod 2)))
                 small_int)
              (self (n - 1));
          ])

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"pretty/reparse round-trip on random expressions"
    ~count:500 ~print:Pretty.expr_to_string expr_gen (fun e ->
      let s = Pretty.expr_to_string e in
      match Parser.parse_expr_string [] s with
      | e2 -> e = e2
      | exception _ -> false)

let () =
  Alcotest.run "minic"
    [
      ( "preproc",
        [
          Alcotest.test_case "basic define" `Quick test_preproc_basic;
          Alcotest.test_case "expression body" `Quick test_preproc_expr;
          Alcotest.test_case "shadowing" `Quick test_preproc_shadowing;
          Alcotest.test_case "line numbers preserved" `Quick
            test_preproc_line_numbers_preserved;
          Alcotest.test_case "function-like rejected" `Quick
            test_preproc_function_macro_rejected;
          Alcotest.test_case "undefined macro" `Quick
            test_preproc_undefined_macro;
          Alcotest.test_case "eval_const_expr" `Quick test_eval_const_expr;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "pragma" `Quick test_lexer_pragma;
          Alcotest.test_case "two-char ops" `Quick test_lexer_two_char_ops;
          Alcotest.test_case "int suffix" `Quick test_lexer_int_suffix;
          Alcotest.test_case "float forms" `Quick test_lexer_float_forms;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "postfix" `Quick test_parser_postfix;
          Alcotest.test_case "call" `Quick test_parser_call;
          Alcotest.test_case "macro folding" `Quick test_parser_macro_folding;
          Alcotest.test_case "program" `Quick test_parser_program;
          Alcotest.test_case "for step forms" `Quick
            test_parser_for_step_forms;
          Alcotest.test_case "decl in for init" `Quick
            test_parser_decl_in_for_init;
          Alcotest.test_case "2d array type" `Quick test_parser_2d_array;
          Alcotest.test_case "pragma clauses" `Quick
            test_parser_pragma_clauses;
          Alcotest.test_case "schedule(static)" `Quick
            test_parser_pragma_schedule_default;
          Alcotest.test_case "schedule kinds" `Quick
            test_parser_pragma_schedule_kinds;
          Alcotest.test_case "pragma errors" `Quick test_parser_pragma_errors;
          Alcotest.test_case "error position" `Quick
            test_parser_error_position;
        ] );
      ( "ctypes",
        [
          Alcotest.test_case "scalar sizes" `Quick test_sizeof_scalars;
          Alcotest.test_case "array sizes" `Quick test_sizeof_array;
          Alcotest.test_case "struct padding" `Quick
            test_struct_layout_padding;
          Alcotest.test_case "tail padding" `Quick test_struct_tail_padding;
          Alcotest.test_case "five doubles" `Quick
            test_struct_of_five_doubles;
          Alcotest.test_case "errors" `Quick test_ctypes_errors;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "good program" `Quick test_typecheck_good;
          Alcotest.test_case "num_threads implicit" `Quick
            test_typecheck_num_threads_implicit;
          Alcotest.test_case "errors" `Quick test_typecheck_errors;
          Alcotest.test_case "locals_of_func" `Quick test_locals_of_func;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "program round-trip" `Quick
            test_pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        ] );
    ]
