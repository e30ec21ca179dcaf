type mode = Full | Predicted of int

type analysis = {
  threads : int;
  fs_chunk : int;
  nfs_chunk : int;
  n_fs : int;
  n_nfs : int;
  percent : float;
  breakdown : Costmodel.Total_cost.breakdown;
}

let count ~mode cfg ~nest ~checked =
  match mode with
  | Full -> (Model.run cfg ~nest ~checked).Model.fs_cases
  | Predicted runs ->
      (Predict.predict ~runs cfg ~nest ~checked).Predict.predicted_fs

let analyze ?(mode = Full) ?(arch = Archspec.Arch.paper_machine)
    ?(fs_cost_factor = Costmodel.Total_cost.default_fs_cost_factor)
    ?(contention = false) ~threads ~fs_chunk ~nfs_chunk ~func checked =
  let params = [ ("num_threads", threads) ] in
  let nest = Loopir.Lower.lower checked ~func ~params in
  let base = Model.default_config ~arch ~threads () in
  let cfg_fs = { base with Model.chunk = Some fs_chunk } in
  let cfg_nfs = { base with Model.chunk = Some nfs_chunk } in
  let n_fs = count ~mode cfg_fs ~nest ~checked in
  let n_nfs = count ~mode cfg_nfs ~nest ~checked in
  let env v = List.assoc_opt v params in
  (* the Eq. 1 breakdown must describe the FS-chunk execution *)
  let breakdown =
    Costmodel.Total_cost.compute ~fs_cost_factor ~contention ~arch ~threads
      ~fs_cases:n_fs ~env ~checked
      (Loopir.Loop_nest.with_static_chunk nest fs_chunk)
  in
  let percent =
    Costmodel.Total_cost.overhead_percent ~fs_cost_factor ~arch ~threads ~n_fs
      ~n_nfs breakdown
  in
  { threads; fs_chunk; nfs_chunk; n_fs; n_nfs; percent; breakdown }

let pp ppf a =
  Format.fprintf ppf
    "threads=%d chunk %d vs %d: N_fs=%d N_nfs=%d -> %.1f%% of loop time"
    a.threads a.fs_chunk a.nfs_chunk a.n_fs a.n_nfs a.percent
