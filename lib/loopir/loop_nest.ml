type loop = {
  var : string;
  lower : Minic.Ast.expr;
  upper_excl : Minic.Ast.expr;
  step : int;
  span : Minic.Span.t;
}

type t = {
  func : string;
  loops : loop list;
  parallel_depth : int;
  pragma : Minic.Ast.pragma;
  refs : Array_ref.t list;
  body : Minic.Ast.stmt list;
}

let depth t = List.length t.loops
let parallel_loop t = List.nth t.loops t.parallel_depth

let trip_count loop ~env =
  let lo = Expr_eval.eval env loop.lower in
  let hi = Expr_eval.eval env loop.upper_excl in
  if hi <= lo then 0 else (hi - lo + loop.step - 1) / loop.step

let total_iterations t ~env =
  (* recursive expansion handles bounds that depend on outer indices *)
  let rec go env = function
    | [] -> 1
    | loop :: rest ->
        let lo = Expr_eval.eval env loop.lower in
        let hi = Expr_eval.eval env loop.upper_excl in
        if hi <= lo then 0
        else begin
          (* fast path: inner bounds independent of this variable *)
          let n = (hi - lo + loop.step - 1) / loop.step in
          let env_of v value x = if x = v then Some value else env x in
          let depends =
            List.exists
              (fun (l : loop) ->
                let uses e =
                  let rec go = function
                    | Minic.Ast.Ident x -> x = loop.var
                    | Minic.Ast.Int_lit _ | Minic.Ast.Float_lit _ -> false
                    | Minic.Ast.Binop (_, a, b) -> go a || go b
                    | Minic.Ast.Unop (_, a) -> go a
                    | Minic.Ast.Index (a, b) -> go a || go b
                    | Minic.Ast.Field (a, _) -> go a
                    | Minic.Ast.Call (_, args) -> List.exists go args
                  in
                  go e
                in
                uses l.lower || uses l.upper_excl)
              rest
          in
          if not depends then n * go (env_of loop.var lo) rest
          else begin
            let total = ref 0 in
            let v = ref lo in
            while !v < hi do
              total := !total + go (env_of loop.var !v) rest;
              v := !v + loop.step
            done;
            !total
          end
        end
  in
  go env t.loops

let schedule_kind t =
  match t.pragma.Minic.Ast.schedule with
  | Some (Minic.Ast.Sched_static _) | None -> `Static
  | Some (Minic.Ast.Sched_dynamic _) -> `Dynamic
  | Some (Minic.Ast.Sched_guided _) -> `Guided

let chunk_spec t =
  match t.pragma.Minic.Ast.schedule with
  | Some (Minic.Ast.Sched_static (Some c))
  | Some (Minic.Ast.Sched_dynamic (Some c))
  | Some (Minic.Ast.Sched_guided (Some c)) ->
      Some c
  | Some (Minic.Ast.Sched_static None)
  | Some (Minic.Ast.Sched_dynamic None)
  | Some (Minic.Ast.Sched_guided None)
  | None ->
      None

let with_static_chunk t c =
  {
    t with
    pragma =
      {
        t.pragma with
        Minic.Ast.schedule = Some (Minic.Ast.Sched_static (Some c));
      };
  }

let chunk_size t = Option.value ~default:1 (chunk_spec t)

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>nest in %s (parallel at depth %d, chunk %d):@," t.func
    t.parallel_depth (chunk_size t);
  List.iteri
    (fun i (l : loop) ->
      fprintf ppf "%s%sfor %s in [%s, %s) step %d@,"
        (String.make (2 * i) ' ')
        (if i = t.parallel_depth then "#omp " else "")
        l.var
        (Minic.Pretty.expr_to_string l.lower)
        (Minic.Pretty.expr_to_string l.upper_excl)
        l.step)
    t.loops;
  fprintf ppf "refs:@,";
  List.iter (fun r -> fprintf ppf "  %a@," Array_ref.pp r) t.refs;
  fprintf ppf "@]"
