(* References for [failed]: every reply is checked against a hand-made
   expected-verdict table (perfbench/expected.txt) and, outside the
   timed window, every FS count a reply states is recomputed with the
   [`Reference] engine by the benchmark itself. *)

module M = Fsmodel.Model

(* ---------------------------------------------------------------- *)
(* Reading replies                                                    *)
(* ---------------------------------------------------------------- *)

let lines s = String.split_on_char '\n' s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go 0

let contains ~sub s = find_sub ~sub s <> None
let is_num c = match c with '0' .. '9' | '.' -> true | _ -> false

(* The number right before (or right after) [marker] in [s]. *)
let number_before ~marker s =
  match find_sub ~sub:marker s with
  | None -> None
  | Some j ->
      let k = ref (j - 1) in
      while !k >= 0 && is_num s.[!k] do decr k done;
      if !k = j - 1 then None else Some (String.sub s (!k + 1) (j - !k - 1))

let number_after ~marker s =
  match find_sub ~sub:marker s with
  | None -> None
  | Some i ->
      let j = i + String.length marker in
      let k = ref j in
      while !k < String.length s && is_num s.[!k] do incr k done;
      if !k = j then None else Some (String.sub s j (!k - j))

(* "severity[rule]" of every finding line, in output order. *)
let finding_tags out =
  List.filter_map
    (fun l ->
      if starts_with ~prefix:"  " l then None
      else
        List.find_map
          (fun sev ->
            let key = " " ^ sev ^ "[" in
            match find_sub ~sub:key l with
            | None -> None
            | Some i ->
                let s = i + String.length key in
                let j = String.index_from l s ']' in
                Some (sev ^ "[" ^ String.sub l s (j - s) ^ "]"))
          [ "error"; "warning"; "note" ])
    (lines out)

(* The reply signature the expected table pins: exit code, the finding
   tags with their multiplicity, and fix verdicts. *)
let signature ~kind (p : Service.Api.payload) =
  let code = Printf.sprintf "code=%d" p.Service.Api.code in
  match kind with
  | "lint" | "sym_lint" ->
      let tags = List.sort compare (finding_tags p.Service.Api.output) in
      let rec group = function
        | [] -> []
        | t :: rest ->
            let same, others = List.partition (( = ) t) rest in
            Printf.sprintf "%sx%d" t (1 + List.length same) :: group others
      in
      let fixv =
        List.filter_map
          (fun l ->
            if starts_with ~prefix:"  fix-verified:" l then
              Some (if contains ~sub:"[VERIFIED]" l then "fixv=ok" else "fixv=FAILED")
            else None)
          (lines p.Service.Api.output)
      in
      String.concat " " ((code :: group tags) @ List.sort_uniq compare fixv)
  | "fix" ->
      let v =
        if contains ~sub:"verdict: VERIFIED" p.Service.Api.output then "VERIFIED"
        else if contains ~sub:"verdict: UNVERIFIED" p.Service.Api.output then "UNVERIFIED"
        else if contains ~sub:"nothing to fix" p.Service.Api.err then "nothing-to-fix"
        else "?"
      in
      code ^ " " ^ v
  | _ -> code

(* ---------------------------------------------------------------- *)
(* The expected table                                                 *)
(* ---------------------------------------------------------------- *)

let table : (string, string) Hashtbl.t = Hashtbl.create 128

let load path =
  let ic = open_in path in
  (try
     while true do
       let l = input_line ic in
       if l <> "" && l.[0] <> '#' then
         match String.index_opt l '\t' with
         | Some i ->
             Hashtbl.replace table (String.sub l 0 i)
               (String.sub l (i + 1) (String.length l - i - 1))
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic

let check_signature ~key ~kind p =
  let s = signature ~kind p in
  match Hashtbl.find_opt table key with
  | Some e when e = s -> Ok ()
  | Some e -> Error (Printf.sprintf "%s: expected %S, got %S" key e s)
  | None -> Error (Printf.sprintf "%s: no expected verdict in the table (got %S)" key s)

(* ---------------------------------------------------------------- *)
(* Reference-engine counts                                            *)
(* ---------------------------------------------------------------- *)

let memo : (string, int) Hashtbl.t = Hashtbl.create 64

(* Reference-engine FS count of every parallel nest of [text]. *)
let ref_counts ?chunk ?sched ~threads text =
  let key =
    Printf.sprintf "%s|%d|%s|%s" (Digest.to_hex (Digest.string text)) threads
      (match chunk with Some c -> string_of_int c | None -> "-")
      (match sched with
      | Some (k, s) -> Ompsched.Dispatch.kind_name k ^ string_of_int s
      | None -> "-")
  in
  let checked = Minic.Typecheck.check_program (Minic.Parser.parse_program text) in
  let params = [ ("num_threads", threads) ] in
  let counts =
    List.concat_map
      (fun func ->
        List.mapi
          (fun i nest ->
            let k = Printf.sprintf "%s|%s|%d" key func i in
            match Hashtbl.find_opt memo k with
            | Some c -> c
            | None ->
                let cfg =
                  { (M.default_config ~threads ()) with M.chunk; params; sched }
                in
                let c = (M.run ~engine:`Reference cfg ~nest ~checked).M.fs_cases in
                Hashtbl.replace memo k c;
                c)
          (try Loopir.Lower.lower_all checked ~func ~params with _ -> []))
      (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog)
  in
  counts

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Every "counts N false-sharing case(s)" a concrete static lint states
   must be the reference count of one of the program's nests. *)
let check_lint_counts ~threads ~text out =
  let stated =
    List.filter_map
      (fun l ->
        if contains ~sub:"(closed form)" l || contains ~sub:"(engine)" l then
          number_before ~marker:" false-sharing case(s) in this nest" l
        else None)
      (lines out)
  in
  if stated = [] then Ok ()
  else
    let refs = ref_counts ~threads text in
    match
      List.find_opt (fun s -> not (List.mem (int_of_string s) refs)) stated
    with
    | None -> Ok ()
    | Some s ->
        fail "lint states %s FS cases; reference engine counts [%s]" s
          (String.concat "; " (List.map string_of_int refs))

(* A replayed-schedule lint states a mean over the seed set. *)
let check_dist_mean ~threads ~kind ~seeds ~text out =
  match
    List.find_map
      (fun l -> number_before ~marker:" false-sharing case(s) on average" l)
      (lines out)
  with
  | None -> Ok ()
  | Some stated ->
      let per_seed =
        List.init seeds (fun s ->
            List.fold_left ( + ) 0 (ref_counts ~sched:(kind, s) ~threads text))
      in
      let mean =
        float_of_int (List.fold_left ( + ) 0 per_seed) /. float_of_int seeds
      in
      if Printf.sprintf "%.1f" mean = stated then Ok ()
      else fail "lint states mean %s; reference engine mean %.1f" stated mean

let check_fix_count ~threads ~text out =
  match number_after ~marker:"before: N_fs " out with
  | None -> Ok ()
  | Some n ->
      let r = List.fold_left ( + ) 0 (ref_counts ~threads text) in
      if int_of_string n = r then Ok ()
      else fail "fix states N_fs %s before; reference engine %d" n r

let check_explain_count ~threads ~text out =
  match number_before ~marker:" false-sharing case(s) in " out with
  | None -> fail "explain reply has no header count"
  | Some n ->
      let r = List.fold_left ( + ) 0 (ref_counts ~threads text) in
      if int_of_string n = r then Ok ()
      else fail "explain states %s; reference engine %d" n r

let check_analyze_counts ~threads ~fs_chunk ~nfs_chunk ~text out =
  match (number_after ~marker:"N_fs=" out, number_after ~marker:"N_nfs=" out) with
  | Some a, Some b ->
      let r c = List.fold_left ( + ) 0 (ref_counts ~chunk:c ~threads text) in
      let rf = r fs_chunk and rn = r nfs_chunk in
      if int_of_string a = rf && int_of_string b = rn then Ok ()
      else fail "analyze states N_fs=%s N_nfs=%s; reference engine %d/%d" a b rf rn
  | _ -> fail "analyze reply has no N_fs/N_nfs"

(* A certified parametric count: the formula the reply prints must be
   the certificate's, and the certificate instantiated at the concrete
   size must equal the reference count of the concrete kernel. *)
let check_sym ~threads ~(kernel : Kernels.Kernel.t) out =
  let formula =
    List.find_map
      (fun l ->
        if starts_with ~prefix:"  count: " l then
          Some (String.sub l 9 (String.length l - 9))
        else None)
      (lines out)
  in
  match (formula, kernel.Kernels.Kernel.parametric) with
  | None, _ | _, None -> Ok ()
  | Some f, Some p -> (
      let checked = Kernels.Kernel.parse_parametric p in
      let params = [ ("num_threads", threads) ] in
      let func = kernel.Kernels.Kernel.func in
      let nest = List.hd (Loopir.Lower.lower_all checked ~func ~params) in
      let line_bytes = 64 in
      let layout = Loopir.Layout.make ~line_bytes checked in
      let extent_of b = try Some (Loopir.Layout.size_of layout b) with Not_found -> None in
      let _, ctx, _ =
        Analysis.Depend.pairs_sym ~line_bytes ~params ~extent_of nest
      in
      let hi =
        match Analysis.Symbolic.bounds_of ctx p.Kernels.Kernel.param with
        | Some (_, Some hi) -> Some hi
        | _ -> None
      in
      let cfg = { (M.default_config ~threads ()) with M.params } in
      match
        Analysis.Closed_form.estimate_sym cfg ~nest ~checked
          ~param:p.Kernels.Kernel.param ?hi ()
      with
      | Analysis.Closed_form.Sym_inapplicable m ->
          fail "reply certifies %S but the benchmark's fit declines: %s" f m
      | Analysis.Closed_form.Sym cert ->
          if Analysis.Closed_form.sym_to_string cert <> f then
            fail "reply formula %S differs from the certificate" f
          else
            let at = Analysis.Closed_form.sym_eval cert p.Kernels.Kernel.value in
            let r =
              List.fold_left ( + ) 0 (ref_counts ~threads kernel.Kernels.Kernel.source)
            in
            if at = r then Ok ()
            else
              fail "certificate gives %d at %s=%d; reference engine %d" at
                p.Kernels.Kernel.param p.Kernels.Kernel.value r)
