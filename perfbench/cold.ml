(* cold_mixed: cold requests through [Service.Api.exec], a fresh store
   per request, one closed-loop client.

   The deck is the same multiset on every seed so that per-kind order
   statistics are comparable across seeds: the 14 bundled kernels (the
   seven paper kernels rebuilt at one eighth of their default sizes so a
   pass fits a run, plus the micro tier) x lint at 4, 8 and 16 threads,
   fix / explain / analyze at one thread count each (rotated over the
   kernels), and the seven size-free variants linted as [sym_lint].  The
   seed permutes the order and picks which two micro kernels replay
   [dynamic,1] and [ws,2]. *)

open Work
module R = Service.Req

let threads_set = [| 4; 8; 16 |]

let kernels () =
  [
    Kernels.Heat.kernel ~rows:18 ~cols:3842 ();
    Kernels.Dft.kernel ~freqs:16 ~samples:3840 ();
    Kernels.Linreg_kernel.kernel ~nacc:600 ~m:512 ();
    Kernels.Saxpy.kernel ~n:3840 ();
    Kernels.Stencil1d.kernel ~n:3842 ~steps:16 ();
    Kernels.Matvec.kernel ~rows:120 ~cols:256 ();
    Kernels.Transpose.kernel ~n:60 ();
  ]
  @ Kernels.Registry.micros ()

let arch = Archspec.Arch.paper_machine

let lint_kind ?sched threads =
  match (R.lint_defaults (R.Kernel "heat")).R.kind with
  | R.Lint l -> R.Lint { l with threads; sched }
  | k -> k

let lint_entry ?sched (k : Kernels.Kernel.t) threads =
  let text = k.Kernels.Kernel.source in
  let uri = "kernel:" ^ k.Kernels.Kernel.name in
  let req = R.v (R.Text { name = uri; content = text }) (lint_kind ?sched threads) in
  let o =
    {
      Replay.arch;
      threads;
      chunk = None;
      fixits = true;
      params = [];
      cost_model = `Sim;
      sched;
      seeds = 8;
      json = false;
    }
  in
  let variant, check =
    match sched with
    | None -> ("lint", fun (p : Service.Api.payload) -> Refs.check_lint_counts ~threads ~text p.Service.Api.output)
    | Some kind ->
        ( "lint-" ^ Ompsched.Dispatch.kind_name kind,
          fun p -> Refs.check_dist_mean ~threads ~kind ~seeds:8 ~text p.Service.Api.output )
  in
  {
    key = Printf.sprintf "%s/%s/t%d" k.Kernels.Kernel.name variant threads;
    kind = "lint";
    req;
    replay = (fun () -> Replay.lint ~o ~uri text);
    check;
  }

let fix_entry (k : Kernels.Kernel.t) threads =
  let text = k.Kernels.Kernel.source and func = k.Kernels.Kernel.func in
  {
    key = Printf.sprintf "%s/fix/t%d" k.Kernels.Kernel.name threads;
    kind = "fix";
    req =
      R.v
        (R.Text { name = "kernel:" ^ k.Kernels.Kernel.name; content = text })
        (R.Fix { func = Some func; threads; jobs = None; json = false });
    replay = (fun () -> Replay.fix ~arch ~threads ~jobs:None ~func text);
    check = (fun p -> Refs.check_fix_count ~threads ~text p.Service.Api.output);
  }

let explain_entry (k : Kernels.Kernel.t) threads =
  let text = k.Kernels.Kernel.source and func = k.Kernels.Kernel.func in
  let uri = "kernel:" ^ k.Kernels.Kernel.name in
  {
    key = Printf.sprintf "%s/explain/t%d" k.Kernels.Kernel.name threads;
    kind = "explain";
    req =
      R.v
        (R.Text { name = uri; content = text })
        (R.Explain
           {
             func = Some func;
             threads;
             chunk = None;
             params = [];
             engine = `Fast;
             format = `Text;
             top = 3;
             trace_cap = None;
             sched = None;
             seeds = 8;
           });
    replay = (fun () -> Replay.explain ~arch ~threads ~func ~format:`Text ~top:3 ~uri text);
    check = (fun p -> Refs.check_explain_count ~threads ~text p.Service.Api.output);
  }

let analyze_entry (k : Kernels.Kernel.t) threads =
  let text = k.Kernels.Kernel.source and func = k.Kernels.Kernel.func in
  let fs_chunk = k.Kernels.Kernel.fs_chunk and nfs_chunk = k.Kernels.Kernel.nfs_chunk in
  {
    key = Printf.sprintf "%s/analyze/t%d" k.Kernels.Kernel.name threads;
    kind = "analyze";
    req =
      R.v
        (R.Text { name = "kernel:" ^ k.Kernels.Kernel.name; content = text })
        (R.Analyze
           {
             func = Some func;
             threads;
             fs_chunk = Some fs_chunk;
             nfs_chunk = Some nfs_chunk;
             predict = None;
             contention = false;
             exact = `Auto;
             exact_budget = Analysis.Depend.default_exact_budget;
             cost_model = `Sim;
             json = false;
           });
    replay =
      (fun () ->
        Replay.analyze ~arch ~threads ~func ~fs_chunk ~nfs_chunk ~cost_model:`Sim text);
    check =
      (fun p ->
        Refs.check_analyze_counts ~threads ~fs_chunk ~nfs_chunk ~text p.Service.Api.output);
  }

let sym_entry (k : Kernels.Kernel.t) (p : Kernels.Kernel.parametric) threads =
  let text = p.Kernels.Kernel.psource in
  let uri = "kernel:" ^ k.Kernels.Kernel.name ^ ":parametric" in
  let o =
    {
      Replay.arch;
      threads;
      chunk = None;
      fixits = true;
      params = [];
      cost_model = `Sim;
      sched = None;
      seeds = 8;
      json = false;
    }
  in
  {
    key = Printf.sprintf "%s/sym_lint/t%d" k.Kernels.Kernel.name threads;
    kind = "sym_lint";
    req = R.v (R.Text { name = uri; content = text }) (lint_kind threads);
    replay = (fun () -> Replay.lint ~o ~uri text);
    check = (fun r -> Refs.check_sym ~threads ~kernel:k r.Service.Api.output);
  }

(* One sample of what it takes before the program answers a cold
   request: a fresh store and a first request through it (a [dump] of
   saxpy, which parses, typechecks and lowers).  On the CPU clock, like
   the latencies: the mean of a batch of 20.  The runner takes a sample
   before every request, so that the samples span the whole run. *)
let setup_sample =
  let k = Kernels.Saxpy.kernel ~n:3840 () in
  let req =
    R.v
      (R.Text { name = "kernel:" ^ k.Kernels.Kernel.name; content = k.Kernels.Kernel.source })
      (R.Dump { threads = 8 })
  in
  let once () =
    for _ = 1 to 20 do
      ignore (Sys.opaque_identity (Service.Api.exec (Service.Api.create_store ()) req))
    done
  in
  fun () -> (fst (timed_self once)).cpu /. 20.

let deck ~seed =
  let rng = Random.State.make [| seed; 0xc01d |] in
  let ks = kernels () in
  let rot i off = threads_set.((i + off) mod Array.length threads_set) in
  let base =
    List.concat
      (List.mapi
         (fun i k ->
           List.map (lint_entry k) (Array.to_list threads_set)
           @ [ fix_entry k (rot i 1); explain_entry k (rot i 2); analyze_entry k (rot i 0) ]
           @
           match k.Kernels.Kernel.parametric with
           | Some p when i < 7 -> [ sym_entry k p (rot i 1) ]
           | _ -> [])
         ks)
  in
  let micros = Array.of_list (Kernels.Registry.micros ()) in
  let pick () = micros.(Random.State.int rng (Array.length micros)) in
  let replays =
    [
      lint_entry ~sched:(Ompsched.Dispatch.Dynamic { chunk = 1 }) (pick ()) 8;
      lint_entry ~sched:(Ompsched.Dispatch.Work_stealing { chunk = 2 }) (pick ()) 8;
    ]
  in
  shuffle rng (base @ replays)
