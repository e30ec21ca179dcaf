type victim = {
  base : string;
  repr : string;
  parallel_stride : int;
  padding_bytes : int;
}

type advice = {
  threads : int;
  sweep : (int * int) list;
  best_chunk : int option;
  victims : victim list;
}

let find_victims ~line_bytes (nest : Loopir.Loop_nest.t) =
  let pvar =
    (Loopir.Loop_nest.parallel_loop nest).Loopir.Loop_nest.var
  in
  let step = (Loopir.Loop_nest.parallel_loop nest).Loopir.Loop_nest.step in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (r : Loopir.Array_ref.t) ->
      if not (Loopir.Array_ref.is_write r) then None
      else begin
        let c = abs (Loopir.Affine.coeff r.Loopir.Array_ref.offset pvar) * step in
        if c > 0 && c < line_bytes && not (Hashtbl.mem seen r.Loopir.Array_ref.base)
        then begin
          Hashtbl.replace seen r.Loopir.Array_ref.base ();
          Some
            {
              base = r.Loopir.Array_ref.base;
              repr = r.Loopir.Array_ref.repr;
              parallel_stride = c;
              (* pad each element so consecutive parallel iterations write
                 to different lines *)
              padding_bytes = line_bytes - c;
            }
        end
        else None
      end)
    nest.Loopir.Loop_nest.refs

let advise ?(arch = Archspec.Arch.paper_machine)
    ?(chunks = [ 1; 2; 4; 8; 16; 32; 64 ]) ?domains ~threads ~func checked =
  let threshold = 0.05 and pred_runs = 16 in
  let nest =
    Loopir.Lower.lower checked ~func ~params:[ ("num_threads", threads) ]
  in
  let base_cfg = Model.default_config ~arch ~threads () in
  (* each candidate chunk is an independent predictor run: sweep them
     across domains *)
  let sweep =
    Par_sweep.map ?domains
      (fun chunk ->
        let cfg = { base_cfg with Model.chunk = Some chunk } in
        let p = Predict.predict ~runs:pred_runs cfg ~nest ~checked in
        (chunk, p.Predict.predicted_fs))
      (List.sort_uniq compare chunks)
  in
  let baseline =
    match sweep with
    | (_, fs1) :: _ -> fs1
    | [] -> 0
  in
  let best_chunk =
    if baseline = 0 then Option.map fst (List.nth_opt sweep 0)
    else
      List.find_map
        (fun (chunk, fs) ->
          if float_of_int fs <= threshold *. float_of_int baseline then
            Some chunk
          else None)
        sweep
  in
  let victims =
    find_victims ~line_bytes:(Archspec.Arch.line_bytes arch) nest
  in
  { threads; sweep; best_chunk; victims }

let pp ppf a =
  Format.fprintf ppf "@[<v>chunk-size sweep on %d threads:@," a.threads;
  List.iter
    (fun (c, fs) -> Format.fprintf ppf "  chunk %3d -> ~%d FS cases@," c fs)
    a.sweep;
  (match a.best_chunk with
  | Some c -> Format.fprintf ppf "recommended chunk: %d@," c
  | None ->
      Format.fprintf ppf
        "no candidate chunk eliminates the false sharing; consider padding@,");
  List.iter
    (fun v ->
      Format.fprintf ppf
        "victim %s (via %s): %dB stride between neighbour threads; pad each \
         element by %dB@,"
        v.base v.repr v.parallel_stride v.padding_bytes)
    a.victims;
  Format.fprintf ppf "@]"
