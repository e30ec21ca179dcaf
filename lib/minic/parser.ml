exception Error of string * int

type state = {
  toks : Token.located array;
  mutable pos : int;
  macros : Preproc.macros;
}

let cur st = st.toks.(st.pos).Token.tok
let cur_line st = st.toks.(st.pos).Token.line
let cur_span st = Token.span_of st.toks.(st.pos)
let prev_span st = Token.span_of st.toks.(max 0 (st.pos - 1))
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1
let fail st msg = raise (Error (msg, cur_line st))

let expect st tok =
  if cur st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (cur st)))

let expect_ident st =
  match cur st with
  | Token.IDENT s -> advance st; s
  | t -> fail st ("expected identifier, found " ^ Token.to_string t)

let accept st tok = if cur st = tok then (advance st; true) else false

(* ------------------------------------------------------------------ *)
(* Expressions: precedence cascade                                     *)
(*   or < and < equality < relational < additive < multiplicative      *)
(*   < unary < postfix < atom                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or st

and parse_or st =
  let rec go lhs =
    if accept st Token.BARBAR then go (Ast.Binop (Ast.Or, lhs, parse_and st))
    else lhs
  in
  go (parse_and st)

and parse_and st =
  let rec go lhs =
    if accept st Token.AMPAMP then go (Ast.Binop (Ast.And, lhs, parse_equality st))
    else lhs
  in
  go (parse_equality st)

and parse_equality st =
  let rec go lhs =
    if accept st Token.EQEQ then go (Ast.Binop (Ast.Eq, lhs, parse_relational st))
    else if accept st Token.NE then go (Ast.Binop (Ast.Ne, lhs, parse_relational st))
    else lhs
  in
  go (parse_relational st)

and parse_relational st =
  let rec go lhs =
    if accept st Token.LT then go (Ast.Binop (Ast.Lt, lhs, parse_additive st))
    else if accept st Token.LE then go (Ast.Binop (Ast.Le, lhs, parse_additive st))
    else if accept st Token.GT then go (Ast.Binop (Ast.Gt, lhs, parse_additive st))
    else if accept st Token.GE then go (Ast.Binop (Ast.Ge, lhs, parse_additive st))
    else lhs
  in
  go (parse_additive st)

and parse_additive st =
  let rec go lhs =
    if accept st Token.PLUS then go (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    else if accept st Token.MINUS then go (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    else lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    if accept st Token.STAR then go (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    else if accept st Token.SLASH then go (Ast.Binop (Ast.Div, lhs, parse_unary st))
    else if accept st Token.PERCENT then go (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    else lhs
  in
  go (parse_unary st)

and parse_unary st =
  if accept st Token.MINUS then Ast.Unop (Ast.Neg, parse_unary st)
  else if accept st Token.BANG then Ast.Unop (Ast.Not, parse_unary st)
  else if accept st Token.PLUS then parse_unary st
  else parse_postfix st

and parse_postfix st =
  let rec go e =
    if accept st Token.LBRACKET then begin
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      go (Ast.Index (e, idx))
    end
    else if accept st Token.DOT then begin
      let f = expect_ident st in
      go (Ast.Field (e, f))
    end
    else e
  in
  go (parse_atom st)

and parse_atom st =
  match cur st with
  | Token.INT_LIT n -> advance st; Ast.Int_lit n
  | Token.FLOAT_LIT f -> advance st; Ast.Float_lit f
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance st;
      if cur st = Token.LPAREN then begin
        advance st;
        let args =
          if cur st = Token.RPAREN then []
          else begin
            let rec go acc =
              let a = parse_expr st in
              if accept st Token.COMMA then go (a :: acc)
              else List.rev (a :: acc)
            in
            go []
          end
        in
        expect st Token.RPAREN;
        Ast.Call (name, args)
      end
      else
        match Preproc.lookup st.macros name with
        | Some v -> Ast.Int_lit v
        | None -> Ast.Ident name)
  | t -> fail st ("unexpected token in expression: " ^ Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Pragmas                                                             *)
(* ------------------------------------------------------------------ *)

let binop_of_reduction_tok st = function
  | Token.PLUS -> Ast.Add
  | Token.MINUS -> Ast.Sub
  | Token.STAR -> Ast.Mul
  | t -> fail st ("unsupported reduction operator " ^ Token.to_string t)

let parse_pragma_tokens st =
  (match cur st with
  | Token.IDENT "omp" -> advance st
  | _ -> fail st "only '#pragma omp ...' pragmas are supported");
  (match cur st with
  | Token.IDENT "parallel" -> advance st
  | _ -> fail st "expected 'parallel' in omp pragma");
  expect st Token.KW_FOR;
  let pragma = ref Ast.empty_pragma in
  let parse_ident_list () =
    expect st Token.LPAREN;
    let rec go acc =
      let v = expect_ident st in
      if accept st Token.COMMA then go (v :: acc) else List.rev (v :: acc)
    in
    let vars = go [] in
    expect st Token.RPAREN;
    vars
  in
  let parse_const_int () =
    (* chunk sizes and thread counts in pragmas must be compile-time
       constants; parse a full expression and fold it *)
    let e = parse_expr st in
    let rec fold = function
      | Ast.Int_lit n -> n
      | Ast.Unop (Ast.Neg, e) -> -fold e
      | Ast.Binop (op, a, b) -> (
          let a = fold a and b = fold b in
          match op with
          | Ast.Add -> a + b
          | Ast.Sub -> a - b
          | Ast.Mul -> a * b
          | Ast.Div ->
              if b = 0 then fail st "division by zero in pragma constant"
              else a / b
          | Ast.Mod ->
              if b = 0 then fail st "modulo by zero in pragma constant"
              else a mod b
          | _ -> fail st "non-arithmetic operator in pragma constant")
      | _ -> fail st "pragma argument must be a constant expression"
    in
    fold e
  in
  let rec clauses () =
    match cur st with
    | Token.EOF -> ()
    | Token.IDENT "private" | Token.IDENT "firstprivate" ->
        advance st;
        let vars = parse_ident_list () in
        pragma := { !pragma with Ast.private_vars = !pragma.Ast.private_vars @ vars };
        clauses ()
    | Token.IDENT "shared" ->
        advance st;
        let vars = parse_ident_list () in
        pragma := { !pragma with Ast.shared_vars = !pragma.Ast.shared_vars @ vars };
        clauses ()
    | Token.IDENT "reduction" ->
        advance st;
        expect st Token.LPAREN;
        let op = binop_of_reduction_tok st (cur st) in
        advance st;
        expect st Token.COLON;
        let rec go acc =
          let v = expect_ident st in
          if accept st Token.COMMA then go (v :: acc) else List.rev (v :: acc)
        in
        let vars = go [] in
        expect st Token.RPAREN;
        pragma :=
          { !pragma with Ast.reduction = !pragma.Ast.reduction @ [ (op, vars) ] };
        clauses ()
    | Token.IDENT "schedule" ->
        advance st;
        expect st Token.LPAREN;
        let kind =
          match cur st with
          | Token.IDENT "static" -> advance st; `Static
          | Token.IDENT "dynamic" -> advance st; `Dynamic
          | Token.IDENT "guided" -> advance st; `Guided
          | t ->
              fail st
                ("schedule kind must be static, dynamic or guided, found "
                ^ Token.to_string t)
        in
        let chunk =
          if accept st Token.COMMA then begin
            let c = parse_const_int () in
            if c < 1 then
              fail st
                (Printf.sprintf "schedule chunk size must be at least 1, found %d"
                   c);
            Some c
          end
          else None
        in
        expect st Token.RPAREN;
        let schedule =
          match kind with
          | `Static -> Ast.Sched_static chunk
          | `Dynamic -> Ast.Sched_dynamic chunk
          | `Guided -> Ast.Sched_guided chunk
        in
        pragma := { !pragma with Ast.schedule = Some schedule };
        clauses ()
    | Token.IDENT "num_threads" ->
        advance st;
        expect st Token.LPAREN;
        let n = parse_const_int () in
        expect st Token.RPAREN;
        pragma := { !pragma with Ast.num_threads = Some n };
        clauses ()
    | Token.IDENT "nowait" -> advance st; clauses ()
    | t -> fail st ("unknown omp clause starting with " ^ Token.to_string t)
  in
  clauses ();
  !pragma

(* The pragma's text is tokenized on its own, so its errors are moved to
   the pragma's line. *)
let parse_pragma macros text line =
  let toks =
    try Lexer.tokenize text
    with Lexer.Error (m, _) -> raise (Error (m, line))
  in
  let st = { toks = Array.of_list toks; pos = 0; macros } in
  try parse_pragma_tokens st with Error (m, _) -> raise (Error (m, line))

(* ------------------------------------------------------------------ *)
(* Types and declarations                                              *)
(* ------------------------------------------------------------------ *)

let parse_base_type st =
  match cur st with
  | Token.KW_VOID -> advance st; Ast.Tvoid
  | Token.KW_CHAR -> advance st; Ast.Tchar
  | Token.KW_INT -> advance st; Ast.Tint
  | Token.KW_LONG -> advance st; Ast.Tlong
  | Token.KW_FLOAT -> advance st; Ast.Tfloat
  | Token.KW_DOUBLE -> advance st; Ast.Tdouble
  | Token.KW_STRUCT ->
      advance st;
      let name = expect_ident st in
      Ast.Tstruct name
  | t -> fail st ("expected a type, found " ^ Token.to_string t)

let looks_like_type st =
  match cur st with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_INT | Token.KW_LONG
  | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_STRUCT ->
      true
  | _ -> false

let const_int_of_expr st e =
  let rec fold = function
    | Ast.Int_lit n -> n
    | Ast.Unop (Ast.Neg, e) -> -fold e
    | Ast.Binop (Ast.Add, a, b) -> fold a + fold b
    | Ast.Binop (Ast.Sub, a, b) -> fold a - fold b
    | Ast.Binop (Ast.Mul, a, b) -> fold a * fold b
    | Ast.Binop (Ast.Div, a, b) ->
        let d = fold b in
        if d = 0 then fail st "division by zero in array dimension"
        else fold a / d
    | _ -> fail st "array dimension must be a constant expression"
  in
  fold e

(* array dims attach outermost-first: int a[2][3] is array 2 of array 3 *)
let parse_array_dims st base =
  let rec dims acc =
    if accept st Token.LBRACKET then begin
      let e = parse_expr st in
      expect st Token.RBRACKET;
      dims (const_int_of_expr st e :: acc)
    end
    else List.rev acc
  in
  let ds = dims [] in
  List.fold_right (fun d t -> Ast.Tarray (t, d)) ds base

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_step st =
  let var = expect_ident st in
  match cur st with
  | Token.PLUSPLUS ->
      advance st;
      { Ast.step_var = var; step_by = Ast.Int_lit 1 }
  | Token.MINUSMINUS ->
      advance st;
      { Ast.step_var = var; step_by = Ast.Int_lit (-1) }
  | Token.PLUSEQ ->
      advance st;
      { Ast.step_var = var; step_by = parse_expr st }
  | Token.MINUSEQ ->
      advance st;
      let e = parse_expr st in
      { Ast.step_var = var; step_by = Ast.Unop (Ast.Neg, e) }
  | Token.ASSIGN -> (
      advance st;
      let e = parse_expr st in
      match e with
      | Ast.Binop (Ast.Add, Ast.Ident v, rhs) when v = var ->
          { Ast.step_var = var; step_by = rhs }
      | Ast.Binop (Ast.Add, lhs, Ast.Ident v) when v = var ->
          { Ast.step_var = var; step_by = lhs }
      | Ast.Binop (Ast.Sub, Ast.Ident v, rhs) when v = var ->
          { Ast.step_var = var; step_by = Ast.Unop (Ast.Neg, rhs) }
      | _ -> fail st "unsupported loop step form")
  | t -> fail st ("unsupported loop step starting with " ^ Token.to_string t)

let rec parse_stmt st =
  match cur st with
  | Token.PRAGMA text ->
      let line = cur_line st in
      let pragma_span = cur_span st in
      advance st;
      let pragma = parse_pragma st.macros text line in
      (match cur st with
      | Token.KW_FOR -> ()
      | _ -> fail st "an omp pragma must be followed by a for loop");
      let loop = parse_for st in
      Ast.Sfor { loop with Ast.pragma = Some pragma; span = pragma_span }
  | Token.KW_FOR -> Ast.Sfor (parse_for st)
  | Token.LBRACE ->
      advance st;
      let rec go acc =
        if accept st Token.RBRACE then List.rev acc
        else go (parse_stmt st :: acc)
      in
      Ast.Sblock (go [])
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let then_ = parse_stmt st in
      let else_ = if accept st Token.KW_ELSE then Some (parse_stmt st) else None in
      Ast.Sif (cond, then_, else_)
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      Ast.Swhile (cond, body)
  | Token.KW_BREAK ->
      advance st;
      expect st Token.SEMI;
      Ast.Sbreak
  | Token.KW_CONTINUE ->
      advance st;
      expect st Token.SEMI;
      Ast.Scontinue
  | Token.KW_RETURN ->
      advance st;
      if accept st Token.SEMI then Ast.Sreturn None
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        Ast.Sreturn (Some e)
      end
  | _ when looks_like_type st ->
      let base = parse_base_type st in
      let name = expect_ident st in
      let ty = parse_array_dims st base in
      let init = if accept st Token.ASSIGN then Some (parse_expr st) else None in
      expect st Token.SEMI;
      Ast.Sdecl (ty, name, init)
  | _ ->
      let sp = cur_span st in
      let lhs = parse_expr st in
      let assign op =
        advance st;
        let rhs = parse_expr st in
        Ast.Sassign (Span.join sp (prev_span st), lhs, op, rhs)
      in
      let stmt =
        match cur st with
        | Token.ASSIGN -> assign Ast.A_set
        | Token.PLUSEQ -> assign Ast.A_add
        | Token.MINUSEQ -> assign Ast.A_sub
        | Token.STAREQ -> assign Ast.A_mul
        | Token.SLASHEQ -> assign Ast.A_div
        | Token.PLUSPLUS ->
            advance st;
            Ast.Sassign (Span.join sp (prev_span st), lhs, Ast.A_add,
                         Ast.Int_lit 1)
        | Token.MINUSMINUS ->
            advance st;
            Ast.Sassign (Span.join sp (prev_span st), lhs, Ast.A_sub,
                         Ast.Int_lit 1)
        | _ -> Ast.Sexpr lhs
      in
      expect st Token.SEMI;
      stmt

and parse_for st =
  let span = cur_span st in
  expect st Token.KW_FOR;
  expect st Token.LPAREN;
  (* init: 'i = e' or 'int i = e' *)
  let init_var, init_expr =
    if looks_like_type st then begin
      let _ty = parse_base_type st in
      let v = expect_ident st in
      expect st Token.ASSIGN;
      (v, parse_expr st)
    end
    else begin
      let v = expect_ident st in
      expect st Token.ASSIGN;
      (v, parse_expr st)
    end
  in
  expect st Token.SEMI;
  let cond = parse_expr st in
  expect st Token.SEMI;
  let step = parse_step st in
  expect st Token.RPAREN;
  let body = parse_stmt st in
  { Ast.pragma = None; span; init_var; init_expr; cond; step; body }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_struct_def st =
  expect st Token.KW_STRUCT;
  let name = expect_ident st in
  expect st Token.LBRACE;
  let rec fields acc =
    if accept st Token.RBRACE then List.rev acc
    else begin
      let base = parse_base_type st in
      let fname = expect_ident st in
      let ty = parse_array_dims st base in
      expect st Token.SEMI;
      fields ((ty, fname) :: acc)
    end
  in
  let fs = fields [] in
  expect st Token.SEMI;
  Ast.Gstruct_def (name, fs)

let parse_params st =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else if cur st = Token.KW_VOID
          && st.toks.(st.pos + 1).Token.tok = Token.RPAREN then begin
    advance st;
    advance st;
    []
  end
  else begin
    let rec go acc =
      let base = parse_base_type st in
      let name = expect_ident st in
      let ty = parse_array_dims st base in
      if accept st Token.COMMA then go ((ty, name) :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev ((ty, name) :: acc)
      end
    in
    go []
  end

let parse_global st =
  if cur st = Token.KW_STRUCT
     && st.toks.(st.pos + 2).Token.tok = Token.LBRACE then
    parse_struct_def st
  else begin
    let base = parse_base_type st in
    let name = expect_ident st in
    if cur st = Token.LPAREN then begin
      let params = parse_params st in
      expect st Token.LBRACE;
      let rec go acc =
        if accept st Token.RBRACE then List.rev acc
        else go (parse_stmt st :: acc)
      in
      Ast.Gfunc { Ast.ret = base; fname = name; params; body = go [] }
    end
    else begin
      let ty = parse_array_dims st base in
      (* global initializers are not supported: globals are zero-initialized
         like C statics *)
      expect st Token.SEMI;
      Ast.Gvar (ty, name)
    end
  end

let parse_program src =
  let macros, cleaned = Preproc.run src in
  let toks =
    try Lexer.tokenize cleaned
    with Lexer.Error (m, l) -> raise (Error (m, l))
  in
  let st = { toks = Array.of_list toks; pos = 0; macros } in
  let rec go acc =
    if cur st = Token.EOF then List.rev acc else go (parse_global st :: acc)
  in
  { Ast.macros; globals = go [] }

let parse_expr_string macros src =
  let toks = Lexer.tokenize src in
  let st = { toks = Array.of_list toks; pos = 0; macros } in
  let e = parse_expr st in
  (match cur st with
  | Token.EOF -> ()
  | t -> fail st ("trailing token after expression: " ^ Token.to_string t));
  e
