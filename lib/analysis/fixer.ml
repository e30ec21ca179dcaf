(* The verification half of the fix loop: materialize Transform's plan,
   then re-count FS twice, re-run the dependence analysis and the
   analytic cost model on the transformed program and compare against
   the original.  The two counts are the Fast engine and an independent
   exact count: the certified closed form where it applies, else the
   Reference engine.  A fix is verified only when the transformed source
   round-trips through the printer, the two counts agree, the attributed
   FS drops below the removal threshold, no race appears, and the
   analytic Total_c does not regress beyond the slack. *)

type metrics = {
  fs_fast : int;
  fs_ref : int;
  races : int;
  cost : float option;
}

type verdict = {
  func : string;
  plan : Fsmodel.Transform.plan;
  before : metrics;
  after : metrics;
  removal : float;
  cost_ratio : float option;
  min_removal : float;
  cost_slack : float;
  roundtrip_ok : bool;
  engines_agree : bool;
  verified : bool;
  transformed : Minic.Typecheck.checked;
  source : string;
}

type outcome = Nothing_to_fix of string | Fix of verdict

exception Symbolic_nest of string list

let count_races ps =
  List.length
    (List.filter (fun (p : Depend.pair) -> p.Depend.verdict = Depend.Loop_carried) ps)

(* Each nest's independent count is the certified closed form where it
   applies, else the Reference engine.  The estimate is the one
   [Reuse.analyze] costs the nest with, so it is made once, and the
   Reference engine runs only where it declines or raises. *)
let measure ~arch ?chunk ~threads ~func (checked : Minic.Typecheck.checked) =
  let params = [ ("num_threads", threads) ] in
  let nests = Loopir.Lower.lower_all checked ~func ~params in
  (match List.concat_map (Depend.free_params ~params) nests with
  | [] -> ()
  | ps -> raise (Symbolic_nest (List.sort_uniq compare ps)));
  let line_bytes = Archspec.Arch.line_bytes arch in
  let base_cfg = Fsmodel.Model.default_config ~arch ~threads () in
  let cfg = { base_cfg with Fsmodel.Model.chunk } in
  List.fold_left
    (fun (acc, agree) nest ->
      let fast = (Fsmodel.Model.run ~engine:`Fast cfg ~nest ~checked).Fsmodel.Model.fs_cases in
      let closed =
        match Closed_form.estimate cfg ~nest ~checked with
        | r -> Some r
        | exception _ -> None
      in
      let refr =
        match closed with
        | Some (Closed_form.Exact i) -> i.Closed_form.fs_cases
        | _ ->
            (Fsmodel.Model.run ~engine:`Reference cfg ~nest ~checked)
              .Fsmodel.Model.fs_cases
      in
      let races = count_races (Depend.pairs ~line_bytes ~params nest) in
      let cost =
        match acc.cost with
        | None -> None
        | Some c -> (
            try
              let a =
                Reuse.analyze ~arch ?chunk ?closed ~threads ~params ~checked nest
              in
              Some (c +. a.Reuse.eq1.Costmodel.Total_cost.total)
            with _ -> None)
      in
      ( {
          fs_fast = acc.fs_fast + fast;
          fs_ref = acc.fs_ref + refr;
          races = acc.races + races;
          cost;
        },
        agree && fast = refr ))
    ({ fs_fast = 0; fs_ref = 0; races = 0; cost = Some 0. }, true)
    nests

let roundtrip_ok (transformed : Minic.Typecheck.checked) source =
  try
    let reparsed = Minic.Parser.parse_program source in
    let strip p = Minic.Ast.erase_spans { p with Minic.Ast.macros = [] } in
    let rechecked = Minic.Typecheck.check_program reparsed in
    strip rechecked.Minic.Typecheck.prog
    = strip transformed.Minic.Typecheck.prog
  with _ -> false

(* the gate: at least 90% of the attributed FS removed, at most 5% more
   analytic Total_c *)
let min_removal = 0.9
let cost_slack = 0.05

let verify ?(arch = Archspec.Arch.paper_machine) ?advice ?chunk ~threads ~func
    checked =
  let line_bytes = Archspec.Arch.line_bytes arch in
  match
    let plan = Fsmodel.Transform.plan ?advice ~line_bytes ~threads ~func checked in
    if plan.Fsmodel.Transform.rewrites = [] then
      Nothing_to_fix
        (Printf.sprintf "no false sharing attributed in %s; nothing to fix" func)
    else
      let before, agree_before = measure ~arch ?chunk ~threads ~func checked in
      if before.fs_ref = 0 then
        Nothing_to_fix
          (Printf.sprintf
             "no false sharing counted in %s at %d thread(s); nothing to fix"
             func threads)
      else begin
        let transformed = Fsmodel.Transform.materialize checked plan in
        let source = Fsmodel.Transform.to_source transformed in
        let after, agree_after = measure ~arch ?chunk ~threads ~func transformed in
        let roundtrip_ok = roundtrip_ok transformed source in
        let removal =
          1.0 -. (float_of_int after.fs_ref /. float_of_int before.fs_ref)
        in
        let cost_ratio =
          match (before.cost, after.cost) with
          | Some b, Some a when b > 0. -> Some (a /. b)
          | _ -> None
        in
        let engines_agree = agree_before && agree_after in
        let verified =
          roundtrip_ok && engines_agree
          && removal >= min_removal
          && after.races <= before.races
          && (match cost_ratio with
             | Some r -> r <= 1.0 +. cost_slack
             | None -> true)
        in
        Fix
          {
            func;
            plan;
            before;
            after;
            removal;
            cost_ratio;
            min_removal;
            cost_slack;
            roundtrip_ok;
            engines_agree;
            verified;
            transformed;
            source;
          }
      end
  with
  | outcome -> outcome
  | exception Symbolic_nest ps ->
      Nothing_to_fix
        (Printf.sprintf
           "parametric nest in %s (free: %s); bind sizes with -p to verify a fix"
           func (String.concat ", " ps))
  | exception Loopir.Lower.Lower_error m ->
      Nothing_to_fix (Printf.sprintf "cannot lower %s: %s" func m)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_cost ppf = function
  | Some c -> Format.fprintf ppf "%.6g cycles" c
  | None -> Format.fprintf ppf "n/a"

let to_text v =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "@[<v>fix plan for %s (%d rewrite(s)):@," v.func
    (List.length v.plan.Fsmodel.Transform.rewrites);
  List.iter
    (fun r -> Format.fprintf ppf "  - %s@," (Fsmodel.Transform.describe r))
    v.plan.Fsmodel.Transform.rewrites;
  Format.fprintf ppf "before: N_fs %d (fast %d), races %d, predicted cost %a@,"
    v.before.fs_ref v.before.fs_fast v.before.races pp_cost v.before.cost;
  Format.fprintf ppf "after:  N_fs %d (fast %d), races %d, predicted cost %a@,"
    v.after.fs_ref v.after.fs_fast v.after.races pp_cost v.after.cost;
  Format.fprintf ppf
    "attributed-FS removal: %.1f%% (threshold %.0f%%); cost ratio %s@,"
    (100. *. v.removal)
    (100. *. v.min_removal)
    (match v.cost_ratio with
    | Some r -> Printf.sprintf "%.2fx" r
    | None -> "n/a");
  Format.fprintf ppf "round-trip: %s; engines agree: %s@,"
    (if v.roundtrip_ok then "ok" else "FAILED")
    (if v.engines_agree then "yes" else "NO");
  Format.fprintf ppf "verdict: %s@]@."
    (if v.verified then "VERIFIED" else "UNVERIFIED");
  Format.pp_print_flush ppf ();
  Buffer.contents b

let to_json v =
  let open Json in
  Obj
    [
      ("function", Str v.func);
      ( "plan",
        List
          (List.map
             (fun r -> Str (Fsmodel.Transform.describe r))
             v.plan.Fsmodel.Transform.rewrites) );
      ( "before",
        Obj
          [
            ("fs", Int v.before.fs_ref);
            ("fsFast", Int v.before.fs_fast);
            ("races", Int v.before.races);
            ( "predictedCost",
              match v.before.cost with Some c -> Float c | None -> Null );
          ] );
      ( "after",
        Obj
          [
            ("fs", Int v.after.fs_ref);
            ("fsFast", Int v.after.fs_fast);
            ("races", Int v.after.races);
            ( "predictedCost",
              match v.after.cost with Some c -> Float c | None -> Null );
          ] );
      ("removal", Float v.removal);
      ("minRemoval", Float v.min_removal);
      ( "costRatio",
        match v.cost_ratio with Some r -> Float r | None -> Null );
      ("roundtripOk", Bool v.roundtrip_ok);
      ("enginesAgree", Bool v.engines_agree);
      ("verified", Bool v.verified);
      ("transformedSource", Str v.source);
    ]
