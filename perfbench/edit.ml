(* edit_session: an editor talking to one `fsdetect serve --jobs 1` child.

   A pass is one session with a fresh child: 576 versions of a file, each
   a new digest (a leading edit-marker comment guarantees it).  11 in 12
   are fuzz-generated mini-C ([Fuzz.Gen.spec ~seed ~index] rendered by
   [Fuzz.Spec.to_source]), a quarter of those parametric; every 12th is a
   registry kernel rebuilt through its constructor at a quarter of
   its default size plus a small seeded growth.  Every version gets an
   analytic lint; by rotation a third also get an analytic [analyze] JSON
   and a third a [dump].  Each version is then followed by 1-3 verbatim
   repeats of its requests, which the response cache answers. *)

open Work
module J = Analysis.Json
module R = Service.Req

let versions = 576
let arch = Archspec.Arch.paper_machine

type version = {
  vkey : string;  (** expected-table key for registry rebuilds, "" for fuzz *)
  text : string;
  threads : int;
  func : string option;
  fs_chunk : int option;
  nfs_chunk : int option;
  parametric : bool;  (** free sizes: no concrete count *)
  lowers : bool;  (** every parallel nest lowers (affine subscripts) *)
}

let registry rng i =
  let grow base = base + (2 * Random.State.int rng 8) in
  let k =
    match i mod 7 with
    | 0 -> Kernels.Heat.kernel ~rows:18 ~cols:(grow 7682) ()
    | 1 -> Kernels.Dft.kernel ~freqs:16 ~samples:(grow 7680) ()
    | 2 -> Kernels.Linreg_kernel.kernel ~nacc:(grow 1200) ~m:512 ()
    | 3 -> Kernels.Saxpy.kernel ~n:(grow 7680) ()
    | 4 -> Kernels.Stencil1d.kernel ~n:(grow 7682) ~steps:16 ()
    | 5 -> Kernels.Matvec.kernel ~rows:(grow 240) ~cols:256 ()
    | _ -> Kernels.Transpose.kernel ~n:(grow 120) ()
  in
  {
    vkey = k.Kernels.Kernel.name ^ "/lint-analytic";
    text = k.Kernels.Kernel.source;
    threads = 8;
    func = Some k.Kernels.Kernel.func;
    fs_chunk = Some k.Kernels.Kernel.fs_chunk;
    nfs_chunk = Some k.Kernels.Kernel.nfs_chunk;
    parametric = false;
    lowers = true;
  }

let fuzz ~seed index =
  let s = Fuzz.Gen.spec ~seed ~index in
  let text = Fuzz.Spec.to_source s in
  let threads = s.Fuzz.Spec.threads in
  (* a nest the lowering rejects (non-affine subscripts) can be linted
     but neither analyzed nor dumped *)
  let lowers =
    try
      let c = Minic.Typecheck.check_program (Minic.Parser.parse_program text) in
      List.iter
        (fun func -> ignore (Loopir.Lower.lower_all c ~func ~params:[ ("num_threads", threads) ]))
        (Loopir.Lower.find_parallel_functions c.Minic.Typecheck.prog);
      true
    with _ -> false
  in
  {
    vkey = "";
    text;
    threads;
    func = None;
    fs_chunk = None;
    nfs_chunk = None;
    parametric = Fuzz.Spec.is_parametric s;
    lowers;
  }

(* One request of the session: the JSON-RPC params, the typed request
   the server decodes them to, and its replay. *)
type request = {
  rkey : string;  (** stable within a pass: version index and method *)
  meth : string;
  params : J.t;
  typed : R.t;
  v : version;
  replay : unit -> unit;
}

let source_params v =
  [ ("source", J.Str v.text); ("name", J.Str "edit.c") ]

let lint_req i v =
  let params =
    J.Obj (source_params v @ [ ("threads", J.Int v.threads); ("cost_model", J.Str "analytic") ])
  in
  let o =
    {
      Replay.arch;
      threads = v.threads;
      chunk = None;
      fixits = true;
      params = [];
      cost_model = `Analytic;
      sched = None;
      seeds = 8;
      json = false;
    }
  in
  ( Printf.sprintf "v%d/lint" i,
    "lint",
    params,
    fun () -> Replay.lint ~o ~uri:"edit.c" v.text )

let analyze_req i v =
  let opt name = function Some x -> [ (name, J.Int x) ] | None -> [] in
  let params =
    J.Obj
      (source_params v
      @ [ ("threads", J.Int v.threads); ("cost_model", J.Str "analytic"); ("json", J.Bool true) ]
      @ opt "fs_chunk" v.fs_chunk @ opt "nfs_chunk" v.nfs_chunk
      @ match v.func with Some f -> [ ("func", J.Str f) ] | None -> [])
  in
  ( Printf.sprintf "v%d/analyze" i,
    "analyze",
    params,
    fun () ->
      let func =
        match v.func with
        | Some f -> f
        | None -> (
            let c = Minic.Typecheck.check_program (Minic.Parser.parse_program v.text) in
            match Loopir.Lower.find_parallel_functions c.Minic.Typecheck.prog with
            | f :: _ -> f
            | [] -> "")
      in
      Replay.analyze ~arch ~threads:v.threads ~func
        ~fs_chunk:(Option.value ~default:1 v.fs_chunk)
        ~nfs_chunk:(Option.value ~default:16 v.nfs_chunk)
        ~cost_model:`Analytic v.text )

let dump_req i v =
  ( Printf.sprintf "v%d/dump" i,
    "dump",
    J.Obj (source_params v @ [ ("threads", J.Int v.threads) ]),
    fun () -> Replay.dump ~threads:v.threads v.text )

(* A generated source of the wanted class for fuzz slot [f]: the first
   spec of the slot's seeded index range that lowers and is (or is not)
   parametric, so every seed gets the same mix of classes. *)
let fuzz_slot ~seed f ~parametric =
  let rec go k =
    let v = fuzz ~seed ((f * 64) + k) in
    if k = 63 || (v.lowers && v.parametric = parametric) then v else go (k + 1)
  in
  go 0

(* The session script: (request, is_repeat) in send order.  The shape is
   the same for every seed (which slots are registry rebuilds, which
   fuzz slots are parametric, which versions also get analyze or dump,
   how many repeats follow); the seed draws the sources, the sizes and
   which request each repeat re-sends. *)
let script ~seed =
  let rng = Random.State.make [| seed; 0xed17 |] in
  List.concat
    (List.init versions (fun i ->
         let v =
           if i mod 12 = 11 then registry rng (i / 12)
           else
             let f = i - (i / 12) in
             fuzz_slot ~seed f ~parametric:(f mod 4 = 3)
         in
         (* the editor's change marker: every version is a new digest *)
         let v = { v with text = Printf.sprintf "/* edit %d */\n%s" i v.text } in
         let reqs =
           lint_req i v
           ::
           (* a parametric source has no concrete analyze: dump it *)
           (match i mod 3 with
           | _ when not v.lowers -> []
           | 0 when not v.parametric -> [ analyze_req i v ]
           | 0 | 1 -> [ dump_req i v ]
           | _ -> [])
         in
         let reqs =
           List.map
             (fun (rkey, meth, params, replay) ->
               match R.of_json ~meth params with
               | Ok typed -> { rkey; meth; params; typed; v; replay }
               | Error e -> failwith ("benchmark built a bad request: " ^ e))
             reqs
         in
         let repeats =
           List.init
             (1 + (i mod 3))
             (fun _ -> List.nth reqs (Random.State.int rng (List.length reqs)))
         in
         List.map (fun r -> (r, false)) reqs @ List.map (fun r -> (r, true)) repeats))

(* ---------------------------------------------------------------- *)
(* References                                                         *)
(* ---------------------------------------------------------------- *)

let payload_of_result j =
  let str k = Option.bind (Service.Jsonp.member k j) Service.Jsonp.to_string_opt in
  let int k = Option.bind (Service.Jsonp.member k j) Service.Jsonp.to_int_opt in
  match (str "output", str "err", int "code") with
  | Some output, Some err, Some code -> Some { Service.Api.output; err; code }
  | _ -> None

let check_reply (r : request) (p : Service.Api.payload) =
  let v = r.v in
  match r.meth with
  | "lint" ->
      (if v.vkey <> "" then Refs.check_signature ~key:v.vkey ~kind:"lint" p
       else
         (* generated sources: the exit code follows the race gate *)
         let races = List.exists (fun t -> Refs.starts_with ~prefix:"error[" t) (Refs.finding_tags p.Service.Api.output) in
         if p.Service.Api.code = (if races then 1 else 0) then Ok ()
         else Refs.fail "lint exit %d with races=%b" p.Service.Api.code races)
      >>> fun () ->
      if v.parametric || not v.lowers then Ok () else Refs.check_lint_counts ~threads:v.threads ~text:v.text p.Service.Api.output
  | "analyze" -> (
      if p.Service.Api.code <> 0 then Refs.fail "analyze exit %d: %s" p.Service.Api.code p.Service.Api.err
      else
        match Service.Jsonp.parse p.Service.Api.output with
        | Error e -> Refs.fail "analyze JSON does not parse: %s" e
        | Ok j -> (
            match Option.bind (Service.Jsonp.member "analytic" j) (Service.Jsonp.member "nFs") with
            | None -> if Service.Jsonp.member "analytic" j = None then Refs.fail "analyze JSON lacks analytic" else Ok ()
            | Some n -> (
                let fs_chunk = Option.value ~default:1 v.fs_chunk in
                let r = List.fold_left ( + ) 0 (Refs.ref_counts ~chunk:fs_chunk ~threads:v.threads v.text) in
                match Service.Jsonp.to_int_opt n with
                | Some n when n = r -> Ok ()
                | _ -> Refs.fail "analyze nFs differs from the reference engine (%d)" r)))
  | _ ->
      if p.Service.Api.code = 0 && p.Service.Api.output <> "" then Ok ()
      else Refs.fail "dump exit %d" p.Service.Api.code

(* ---------------------------------------------------------------- *)
(* The session                                                        *)
(* ---------------------------------------------------------------- *)

type pass = {
  setup : Client.setup;
  misses : Work.sample list;  (** round trip; CPU time of the serve child *)
  hits : Work.sample list;
  rss : float;
  replies : (string * string) list;  (** request key, result line *)
}

(* One pass over [script] on a fresh child.  [check]: run the reference
   checks on the first replies (one pass of a run is enough: the others
   must answer the same bytes). *)
let run_pass ~exe ~script ~check ~trace ~(res : result) =
  let c, setup = Client.start exe in
  let child = string_of_int c.Client.pid in
  let mirror = Service.Api.create_store () in
  Replay.stage_memo := if trace then Some (Hashtbl.create 1024) else None;
  let misses = ref [] and hits = ref [] and replies = ref [] in
  let first = Hashtbl.create 256 in
  (* the runner and the child share one CPU (perfbench/run.py pins
     them), so the speed measured here, once per version, is the
     child's *)
  let version = ref "" and speed = ref 1. in
  List.iteri
    (fun id (r, repeat) ->
      if r.v.text <> !version then begin
        version := r.v.text;
        speed := Work.speed ()
      end;
      let line = Client.line ~id:(id + 1) ~meth:r.meth r.params in
      let c0 = Work.cpu_s child in
      let dt, reply = Tr.timed (fun () -> Client.call c line) in
      let s = { Work.key = r.rkey; wall = dt; cpu = Work.cpu_s child -. c0; speed = !speed } in
      if repeat then hits := { s with key = Printf.sprintf "%s#%d" r.rkey id } :: !hits
      else misses := s :: !misses;
      replies := (r.rkey, reply) :: !replies;
      let outcome =
        guard (fun () ->
            match Service.Jsonp.parse reply with
            | Error e -> Refs.fail "protocol: reply is not JSON: %s" e
            | Ok j -> (
                if Option.bind (Service.Jsonp.member "id" j) Service.Jsonp.to_int_opt <> Some (id + 1)
                then Refs.fail "protocol: reply id mismatch"
                else
                  match Option.bind (Service.Jsonp.member "result" j) payload_of_result with
                  | None -> Refs.fail "protocol: no result payload in %s" reply
                  | Some p -> (
                      match Hashtbl.find_opt first r.rkey with
                      | Some p0 ->
                          if p0 = p then Ok () else Refs.fail "%s: repeat differs from first reply" r.rkey
                      | None ->
                          Hashtbl.replace first r.rkey p;
                          Ok ())))
      in
      attempt res outcome;
      if trace then begin
        (* the same request in process, against a store that mirrors the
           child's: Api.exec wall, then the layer replay of misses *)
        let req_id = Tr.begin_request () in
        Tr.enabled := true;
        Tr.span "serve.decode" (fun () ->
            match Service.Jsonp.parse line with
            | Ok j ->
                let params = Option.value ~default:(J.Obj []) (Service.Jsonp.member "params" j) in
                ignore (R.of_json ~meth:r.meth params);
                ignore (Service.Jsonp.parse reply |> Result.map Service.Jsonp.to_line)
            | Error _ -> ());
        Tr.enabled := false;
        let runs0 = Fsmodel.Model.run_count () in
        let wall, _ = Tr.timed (fun () -> Service.Api.exec mirror r.typed) in
        let runs = Fsmodel.Model.run_count () - runs0 in
        Tr.add "engine.runs" (float_of_int runs);
        if r.meth = "lint" && not r.v.parametric then begin
          Tr.add "engine.runs_concrete_lints" (float_of_int runs);
          if runs <> 0 then
            attempt res (Refs.fail "%s: concrete analytic lint ran the engine %d time(s)" r.rkey runs)
        end;
        Tr.record_exec_wall req_id wall;
        if not repeat then begin
          Tr.enabled := true;
          (try r.replay () with _ -> ());
          Tr.enabled := false
        end
      end)
    script;
  let rss = Work.peak_rss_mb (string_of_int c.Client.pid) in
  (* the child's own cache counters (deterministic at --jobs 1) *)
  (match Service.Jsonp.parse (Client.call c (Client.line ~id:0 ~meth:"cache_stats" (J.Obj []))) with
  | Ok j ->
      List.iter
        (fun k ->
          match Option.bind (Service.Jsonp.member "result" j) (Service.Jsonp.member k) with
          | Some v -> Tr.add ("serve.cache_" ^ k) (float_of_int (Option.value ~default:0 (Service.Jsonp.to_int_opt v)))
          | None -> ())
        [ "hits"; "misses"; "evictions" ]
  | Error e -> attempt res (Refs.fail "protocol: cache_stats: %s" e));
  Client.stop c;
  if trace then begin
    let rh, rm = Service.Api.stage_stats mirror "resp" in
    let ph, pm = Service.Api.stage_stats mirror "parse" in
    Tr.add "cache.resp_hits" (float_of_int rh);
    Tr.add "cache.resp_misses" (float_of_int rm);
    Tr.add "cache.parse_hits" (float_of_int ph);
    Tr.add "cache.parse_misses" (float_of_int pm)
  end;
  (* references, outside the timed window: every first reply *)
  if check then
    Hashtbl.iter
      (fun key p ->
        let r, _ = List.find (fun ((r : request), _) -> r.rkey = key) script in
        attempt res (guard (fun () -> check_reply r p)))
      first;
  { setup; misses = !misses; hits = !hits; rss; replies = List.rev !replies }
