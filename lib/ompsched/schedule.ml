type t = { threads : int; chunk : int; total : int }

let make ~threads ~chunk ~total =
  if threads < 1 then invalid_arg "Schedule.make: threads < 1";
  if chunk < 1 then invalid_arg "Schedule.make: chunk < 1";
  if total < 0 then invalid_arg "Schedule.make: total < 0";
  { threads; chunk; total }

let block_chunk ~threads ~total =
  if threads < 1 then invalid_arg "Schedule.block_chunk: threads < 1";
  max 1 ((total + threads - 1) / threads)

let chunk_index t q = q / t.chunk
let owner t q = chunk_index t q mod t.threads
let chunk_run_of_iter t q = chunk_index t q / t.threads

let nth_iter_int t ~tid k =
  if k < 0 || tid < 0 || tid >= t.threads then -1
  else begin
    let run = k / t.chunk in
    let pos = k mod t.chunk in
    let q = (((run * t.threads) + tid) * t.chunk) + pos in
    if q < t.total then q else -1
  end

let nth_iter_of_thread t ~tid k =
  match nth_iter_int t ~tid k with -1 -> None | q -> Some q

let count_of_thread t ~tid =
  (* a chunk per complete round of [threads] chunks, then the rest of the
     loop dealt chunk by chunk from thread 0 *)
  if tid < 0 || tid >= t.threads then 0
  else
    let round = t.threads * t.chunk in
    let rest = (t.total mod round) - (tid * t.chunk) in
    (t.total / round * t.chunk) + max 0 (min t.chunk rest)

let iters_of_thread t ~tid =
  let rec go k acc =
    match nth_iter_of_thread t ~tid k with
    | Some q -> go (k + 1) (q :: acc)
    | None ->
        (* the thread's iterations may resume at the next chunk only if the
           current chunk was cut short by [total]; with this scheme a [None]
           within a chunk means we ran off the end of the loop *)
        List.rev acc
  in
  go 0 []

let chunk_runs_total t =
  let per_run = t.threads * t.chunk in
  (t.total + per_run - 1) / per_run

let max_steps_per_thread t =
  let rec go tid acc =
    if tid >= t.threads then acc else go (tid + 1) (max acc (count_of_thread t ~tid))
  in
  go 0 0

let chunks_per_thread t = (max_steps_per_thread t + t.chunk - 1) / t.chunk

let pp ppf t =
  Format.fprintf ppf "static(chunk=%d) over %d iters on %d threads" t.chunk
    t.total t.threads
