(* FS-case provenance: packed-int histograms plus a bounded
   struct-of-arrays event ring.  Nothing here allocates per event once
   the tables and the ring have grown to their working size, so the fast
   engine keeps its allocation-free hot path when a recorder is
   attached. *)

type t = {
  threads : int;
  nrefs : int;
  (* (writer_ref, victim_ref, writer_tid, victim_tid) -> count, the key
     packed as ((wr * nrefs + vr) * threads + wt) * threads + vt; a
     writer_ref of -1 (unknown) is folded in by biasing refs by one *)
  pairs : int Cachesim.Int_table.t;
  line_views : bool;  (* whether [lines] and [cells] are kept *)
  lines : int Cachesim.Int_table.t;  (* line -> count *)
  cells : int Cachesim.Int_table.t;  (* line * threads + victim_tid -> count *)
  mutable total : int;
  (* bounded trace ring: first [cap] events, recording order *)
  cap : int;
  mutable len : int;
  mutable e_step : int array;
  mutable e_line : int array;
  mutable e_wtid : int array;
  mutable e_wref : int array;
  mutable e_vtid : int array;
  mutable e_vref : int array;
}

let create ?(trace_cap = 65536) ?(line_views = false) ~threads ~nrefs () =
  if threads < 1 then invalid_arg "Attrib.create: threads < 1";
  if nrefs < 0 then invalid_arg "Attrib.create: nrefs < 0";
  if trace_cap < 0 then invalid_arg "Attrib.create: trace_cap < 0";
  let initial = min 64 (max 1 trace_cap) in
  {
    threads;
    nrefs;
    pairs = Cachesim.Int_table.create ~initial:256 ();
    line_views;
    lines = Cachesim.Int_table.create ~initial:256 ();
    cells = Cachesim.Int_table.create ~initial:256 ();
    total = 0;
    cap = trace_cap;
    len = 0;
    e_step = Array.make initial 0;
    e_line = Array.make initial 0;
    e_wtid = Array.make initial 0;
    e_wref = Array.make initial 0;
    e_vtid = Array.make initial 0;
    e_vref = Array.make initial 0;
  }

let threads t = t.threads
let nrefs t = t.nrefs
let total t = t.total

(* refs biased by one so the unknown writer (-1) packs as 0 *)
let pack t ~writer_ref ~victim_ref ~writer_tid ~victim_tid =
  ((((writer_ref + 1) * (t.nrefs + 1)) + (victim_ref + 1)) * t.threads
  + writer_tid)
  * t.threads
  + victim_tid

let unpack t key =
  let victim_tid = key mod t.threads in
  let key = key / t.threads in
  let writer_tid = key mod t.threads in
  let key = key / t.threads in
  let victim_ref = (key mod (t.nrefs + 1)) - 1 in
  let writer_ref = (key / (t.nrefs + 1)) - 1 in
  (writer_ref, victim_ref, writer_tid, victim_tid)

let bump tbl key =
  let s = Cachesim.Int_table.probe tbl key in
  if Cachesim.Int_table.key_at tbl s = key then
    Cachesim.Int_table.set_at tbl s (Cachesim.Int_table.value_at tbl s + 1)
  else Cachesim.Int_table.add_at tbl s key 1

let grow t =
  let n = Array.length t.e_step in
  let n' = min t.cap (2 * n) in
  let extend a = let b = Array.make n' 0 in Array.blit a 0 b 0 n; b in
  t.e_step <- extend t.e_step;
  t.e_line <- extend t.e_line;
  t.e_wtid <- extend t.e_wtid;
  t.e_wref <- extend t.e_wref;
  t.e_vtid <- extend t.e_vtid;
  t.e_vref <- extend t.e_vref

let record t ~step ~line ~writer_tid ~writer_ref ~victim_tid ~victim_ref =
  bump t.pairs (pack t ~writer_ref ~victim_ref ~writer_tid ~victim_tid);
  if t.line_views then begin
    bump t.lines line;
    bump t.cells ((line * t.threads) + victim_tid)
  end;
  if t.len < t.cap then begin
    if t.len = Array.length t.e_step then grow t;
    let i = t.len in
    t.e_step.(i) <- step;
    t.e_line.(i) <- line;
    t.e_wtid.(i) <- writer_tid;
    t.e_wref.(i) <- writer_ref;
    t.e_vtid.(i) <- victim_tid;
    t.e_vref.(i) <- victim_ref;
    t.len <- i + 1
  end;
  t.total <- t.total + 1

let fold_pairs t ~init ~f =
  Cachesim.Int_table.fold
    (fun key count acc ->
      let writer_ref, victim_ref, writer_tid, victim_tid = unpack t key in
      f acc ~writer_ref ~victim_ref ~writer_tid ~victim_tid ~count)
    t.pairs init

let need_views t name =
  if not t.line_views then
    invalid_arg
      (Printf.sprintf "Attrib.%s: the recorder keeps no line views" name)

let fold_lines t ~init ~f =
  need_views t "fold_lines";
  Cachesim.Int_table.fold (fun line count acc -> f acc ~line ~count) t.lines
    init

(* a cell key is [line * threads + tid] with [0 <= tid < threads], so the
   line is the key divided by floor: lines can be negative *)
let fold_cells t ~init ~f =
  need_views t "fold_cells";
  Cachesim.Int_table.fold
    (fun key count acc ->
      let tid = ((key mod t.threads) + t.threads) mod t.threads in
      f acc ~line:((key - tid) / t.threads) ~tid ~count)
    t.cells init

type pair_stat = {
  writer_ref : int;
  victim_ref : int;
  writer_tid : int;
  victim_tid : int;
  count : int;
}

let top_pairs ?(n = 3) t =
  let all =
    Cachesim.Int_table.fold (fun key count acc -> (key, count) :: acc) t.pairs
      []
  in
  let sorted =
    List.sort
      (fun (k1, c1) (k2, c2) ->
        let c = compare c2 c1 in
        if c <> 0 then c else compare k1 k2)
      all
  in
  List.filteri (fun i _ -> i < n) sorted
  |> List.map (fun (key, count) ->
         let writer_ref, victim_ref, writer_tid, victim_tid = unpack t key in
         { writer_ref; victim_ref; writer_tid; victim_tid; count })

type ref_pair = {
  rp_writer : int;
  rp_victim : int;
  rp_count : int;
  rp_threads : (int * int * int) list;
}

let ref_pairs t =
  (* (writer_ref, victim_ref) -> (count, thread pairs); each histogram
     key is one thread pair of one reference pair *)
  let tbl = Hashtbl.create 16 in
  fold_pairs t ~init:()
    ~f:(fun () ~writer_ref ~victim_ref ~writer_tid ~victim_tid ~count ->
      let key = (writer_ref, victim_ref) in
      let c, tps =
        Option.value ~default:(0, []) (Hashtbl.find_opt tbl key)
      in
      Hashtbl.replace tbl key
        (c + count, (writer_tid, victim_tid, count) :: tps));
  (* descending count, then ascending key *)
  let heavier c1 k1 c2 k2 =
    let c = compare c2 c1 in
    if c <> 0 then c else compare k1 k2
  in
  Hashtbl.fold
    (fun (w, v) (c, tps) acc ->
      {
        rp_writer = w;
        rp_victim = v;
        rp_count = c;
        rp_threads =
          List.sort
            (fun (wt1, vt1, c1) (wt2, vt2, c2) ->
              heavier c1 (wt1, vt1) c2 (wt2, vt2))
            tps;
      }
      :: acc)
    tbl []
  |> List.sort (fun p q ->
         heavier p.rp_count (p.rp_writer, p.rp_victim) q.rp_count
           (q.rp_writer, q.rp_victim))

let sentence ~refs ~total p =
  let wt, vt, _ = List.hd p.rp_threads in
  let repr i = refs.(i).Loopir.Array_ref.repr in
  let writer_part =
    if p.rp_writer >= 0 then
      Printf.sprintf "%s written by T%d" (repr p.rp_writer) wt
    else Printf.sprintf "a write by T%d" wt
  in
  let more =
    match List.length p.rp_threads with
    | n when n <= 1 -> ""
    | n -> Printf.sprintf " and %d more thread pair(s)" (n - 1)
  in
  Printf.sprintf "%.1f%% of FS cases: %s invalidates %s %s by T%d (%d \
                  case(s)%s)"
    (100. *. float_of_int p.rp_count /. float_of_int total)
    writer_part (repr p.rp_victim)
    (if Loopir.Array_ref.is_write refs.(p.rp_victim) then "written"
     else "read")
    vt p.rp_count more

let trace_len t = t.len
let trace_dropped t = t.total - t.len

let check t i name =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Attrib.%s: index %d out of [0, %d)" name i t.len)

let trace_step t i = check t i "trace_step"; t.e_step.(i)
let trace_line t i = check t i "trace_line"; t.e_line.(i)
let trace_writer_tid t i = check t i "trace_writer_tid"; t.e_wtid.(i)
let trace_writer_ref t i = check t i "trace_writer_ref"; t.e_wref.(i)
let trace_victim_tid t i = check t i "trace_victim_tid"; t.e_vtid.(i)
let trace_victim_ref t i = check t i "trace_victim_ref"; t.e_vref.(i)
