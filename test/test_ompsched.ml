(* Tests for the OpenMP scheduling model. *)

open Ompsched

let check = Alcotest.check
let fail = Alcotest.fail

let test_owner_round_robin () =
  let s = Schedule.make ~threads:3 ~chunk:2 ~total:12 in
  (* chunks: [0,1]->t0 [2,3]->t1 [4,5]->t2 [6,7]->t0 ... *)
  check Alcotest.int "iter 0" 0 (Schedule.owner s 0);
  check Alcotest.int "iter 1" 0 (Schedule.owner s 1);
  check Alcotest.int "iter 2" 1 (Schedule.owner s 2);
  check Alcotest.int "iter 5" 2 (Schedule.owner s 5);
  check Alcotest.int "iter 6 wraps" 0 (Schedule.owner s 6);
  check Alcotest.int "chunk run of 5" 0 (Schedule.chunk_run_of_iter s 5);
  check Alcotest.int "chunk run of 6" 1 (Schedule.chunk_run_of_iter s 6)

let test_iters_of_thread () =
  let s = Schedule.make ~threads:2 ~chunk:2 ~total:10 in
  check (Alcotest.list Alcotest.int) "thread 0" [ 0; 1; 4; 5; 8; 9 ]
    (Schedule.iters_of_thread s ~tid:0);
  check (Alcotest.list Alcotest.int) "thread 1" [ 2; 3; 6; 7 ]
    (Schedule.iters_of_thread s ~tid:1)

let test_nth_iter () =
  let s = Schedule.make ~threads:2 ~chunk:2 ~total:10 in
  check (Alcotest.option Alcotest.int) "t0 k2" (Some 4)
    (Schedule.nth_iter_of_thread s ~tid:0 2);
  check (Alcotest.option Alcotest.int) "t1 past end" None
    (Schedule.nth_iter_of_thread s ~tid:1 4);
  check (Alcotest.option Alcotest.int) "bad tid" None
    (Schedule.nth_iter_of_thread s ~tid:7 0)

let test_counts () =
  let s = Schedule.make ~threads:2 ~chunk:2 ~total:10 in
  check Alcotest.int "t0" 6 (Schedule.count_of_thread s ~tid:0);
  check Alcotest.int "t1" 4 (Schedule.count_of_thread s ~tid:1);
  check Alcotest.int "max steps" 6 (Schedule.max_steps_per_thread s)

let test_block_chunk () =
  check Alcotest.int "even" 25 (Schedule.block_chunk ~threads:4 ~total:100);
  check Alcotest.int "uneven rounds up" 26
    (Schedule.block_chunk ~threads:4 ~total:101);
  check Alcotest.int "never zero" 1 (Schedule.block_chunk ~threads:8 ~total:0);
  (* with the block chunk every thread gets at most one chunk *)
  let total = 101 and threads = 4 in
  let s =
    Schedule.make ~threads ~chunk:(Schedule.block_chunk ~threads ~total) ~total
  in
  check Alcotest.int "one run" 1 (Schedule.chunk_runs_total s);
  check Alcotest.bool "contiguous per thread" true
    (List.for_all
       (fun tid ->
         match Schedule.iters_of_thread s ~tid with
         | [] -> true
         | first :: _ as l ->
             List.mapi (fun k _ -> first + k) l = l)
       (List.init threads (fun t -> t)))

let test_chunk_runs_total () =
  let s = Schedule.make ~threads:4 ~chunk:3 ~total:100 in
  (* 100 / (4*3) = 8.33 -> 9 *)
  check Alcotest.int "runs" 9 (Schedule.chunk_runs_total s)

let test_degenerate () =
  let s = Schedule.make ~threads:8 ~chunk:4 ~total:0 in
  check Alcotest.int "no iters" 0 (Schedule.count_of_thread s ~tid:0);
  check Alcotest.int "no runs" 0 (Schedule.chunk_runs_total s);
  match Schedule.make ~threads:0 ~chunk:1 ~total:1 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "threads=0 must be rejected"

(* qcheck: the schedule partitions 0..total-1 exactly *)
let sched_gen =
  QCheck2.Gen.(
    map3
      (fun threads chunk total ->
        Schedule.make ~threads:(1 + (abs threads mod 8))
          ~chunk:(1 + (abs chunk mod 7))
          ~total:(abs total mod 200))
      small_int small_int small_int)

let prop_partition =
  QCheck2.Test.make ~name:"iters_of_thread partitions the iteration space"
    ~count:200 sched_gen (fun s ->
      let all =
        List.concat
          (List.init s.Schedule.threads (fun tid ->
               Schedule.iters_of_thread s ~tid))
      in
      let sorted = List.sort compare all in
      sorted = List.init s.Schedule.total (fun i -> i))

let prop_owner_consistent =
  QCheck2.Test.make ~name:"owner agrees with iters_of_thread" ~count:200
    sched_gen (fun s ->
      List.for_all
        (fun tid ->
          List.for_all
            (fun q -> Schedule.owner s q = tid)
            (Schedule.iters_of_thread s ~tid))
        (List.init s.Schedule.threads (fun t -> t)))

let prop_counts_sum =
  QCheck2.Test.make ~name:"count_of_thread sums to total" ~count:200 sched_gen
    (fun s ->
      List.fold_left
        (fun acc tid -> acc + Schedule.count_of_thread s ~tid)
        0
        (List.init s.Schedule.threads (fun t -> t))
      = s.Schedule.total)

let prop_count_matches_list =
  QCheck2.Test.make ~name:"count_of_thread counts iters_of_thread" ~count:200
    sched_gen (fun s ->
      List.for_all
        (fun tid ->
          Schedule.count_of_thread s ~tid
          = List.length (Schedule.iters_of_thread s ~tid))
        (List.init (s.Schedule.threads + 2) (fun t -> t - 1)))

let prop_nth_matches_list =
  QCheck2.Test.make ~name:"nth_iter_of_thread enumerates iters_of_thread"
    ~count:200 sched_gen (fun s ->
      List.for_all
        (fun tid ->
          let l = Schedule.iters_of_thread s ~tid in
          List.mapi (fun k _ -> Schedule.nth_iter_of_thread s ~tid k) l
          = List.map Option.some l
          && Schedule.nth_iter_of_thread s ~tid (List.length l) = None)
        (List.init s.Schedule.threads (fun t -> t)))

(* ------------------------------------------------------------------ *)
(* Seeded PRNG streams                                                 *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let draws () =
    let t = Prng.stream ~seed:5 ~index:3 in
    List.init 32 (fun _ -> Prng.next t)
  in
  check (Alcotest.list Alcotest.int64) "same (seed, index), same stream"
    (draws ()) (draws ())

(* distinct per-deque indices must give independent streams: across 16
   indices x 256 draws, splitmix64's finalizer makes a collision
   astronomically unlikely, so any repeat means the index folding is
   broken (e.g. two deques sharing a stream) *)
let test_prng_stream_independence () =
  let tbl = Hashtbl.create 8192 in
  for index = 0 to 15 do
    let t = Prng.stream ~seed:42 ~index in
    for draw = 0 to 255 do
      let v = Prng.next t in
      (match Hashtbl.find_opt tbl v with
      | Some (i0, d0) ->
          Alcotest.failf
            "streams %d (draw %d) and %d (draw %d) collide on %Ld" i0 d0
            index draw v
      | None -> ());
      Hashtbl.add tbl v (index, draw)
    done
  done;
  (* and the finalizer itself is not the identity on small inputs *)
  check Alcotest.bool "mix moves small inputs" true
    (Prng.mix 1L <> 1L && Prng.mix 2L <> 2L && Prng.mix 1L <> Prng.mix 2L)

(* victim selection draws uniformly from the candidate deques: over 10k
   draws every candidate's frequency is within 20% of expectation *)
let prop_pick_victim_uniform =
  QCheck2.Test.make ~name:"pick_victim is uniform over 10k draws" ~count:30
    QCheck2.Gen.(
      pair (int_range 2 8) (int_range 0 1000))
    (fun (ncand, seed) ->
      let candidates = Array.init ncand (fun i -> (i * 3) + 1) in
      let t = Prng.stream ~seed ~index:9 in
      let counts = Hashtbl.create 8 in
      let draws = 10_000 in
      for _ = 1 to draws do
        let v = Dispatch.pick_victim t ~candidates in
        if not (Array.exists (( = ) v) candidates) then
          QCheck2.Test.fail_reportf "drew %d, not a candidate" v;
        Hashtbl.replace counts v
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
      done;
      let expected = float_of_int draws /. float_of_int ncand in
      Array.for_all
        (fun c ->
          let n =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts c))
          in
          Float.abs (n -. expected) <= 0.2 *. expected)
        candidates)

(* ------------------------------------------------------------------ *)
(* Dispatch plans                                                      *)
(* ------------------------------------------------------------------ *)

let dispatch_kinds =
  [
    Dispatch.Dynamic { chunk = 1 };
    Dispatch.Dynamic { chunk = 3 };
    Dispatch.Guided { min_chunk = 2 };
    Dispatch.Work_stealing { chunk = 1 };
    Dispatch.Work_stealing { chunk = 4 };
  ]

let plan_gen =
  QCheck2.Gen.(
    map3
      (fun threads total (kind, seed) ->
        (1 + (threads mod 8), total mod 150, List.nth dispatch_kinds kind, seed))
      (map abs small_int) (map abs small_int)
      (pair (int_range 0 (List.length dispatch_kinds - 1)) (int_range 0 99)))

let prop_plan_partitions =
  QCheck2.Test.make ~name:"every plan partitions the iteration space"
    ~count:300 plan_gen (fun (threads, total, kind, seed) ->
      let p = Dispatch.plan ~threads ~total ~seed kind in
      let all =
        List.concat
          (List.init threads (fun tid -> Dispatch.iters_of_thread p ~tid))
      in
      List.sort compare all = List.init total (fun i -> i))

let prop_plan_replays =
  QCheck2.Test.make ~name:"same (kind, seed), same plan" ~count:200 plan_gen
    (fun (threads, total, kind, seed) ->
      let seqs p =
        List.init threads (fun tid -> Dispatch.iters_of_thread p ~tid)
      in
      let a = Dispatch.plan ~threads ~total ~seed kind
      and b = Dispatch.plan ~threads ~total ~seed kind in
      seqs a = seqs b && Dispatch.steals a = Dispatch.steals b)

let prop_plan_static_equiv =
  QCheck2.Test.make
    ~name:"one thread, or one chunk covering the trip, is the static deal"
    ~count:200 plan_gen (fun (threads, total, kind, seed) ->
      let in_order = List.init total (fun i -> i) in
      let solo = Dispatch.plan ~threads:1 ~total ~seed kind in
      let whole =
        Dispatch.plan ~threads ~total ~seed
          (Dispatch.Dynamic { chunk = max 1 total })
      in
      Dispatch.iters_of_thread solo ~tid:0 = in_order
      && Dispatch.steals solo = 0
      && Dispatch.iters_of_thread whole ~tid:0 = in_order)

let prop_no_steals_without_stealing =
  QCheck2.Test.make ~name:"dynamic and guided plans never steal" ~count:200
    plan_gen (fun (threads, total, _, seed) ->
      Dispatch.steals (Dispatch.plan ~threads ~total ~seed
                         (Dispatch.Dynamic { chunk = 2 }))
      = 0
      && Dispatch.steals (Dispatch.plan ~threads ~total ~seed
                            (Dispatch.Guided { min_chunk = 1 }))
         = 0)

let test_team () =
  let t = Team.make ~threads:24 () in
  check Alcotest.int "socket of 0" 0 (Team.socket_of t 0);
  check Alcotest.int "socket of 12" 1 (Team.socket_of t 12);
  check Alcotest.bool "share" true (Team.share_socket t 0 11);
  check Alcotest.bool "differ" false (Team.share_socket t 11 12);
  (match Team.make ~threads:49 () with
  | exception Invalid_argument _ -> ()
  | _ -> fail "too many threads");
  match Team.make ~threads:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> fail "zero threads"

let test_overhead () =
  let o = Overhead.default in
  let a = Overhead.parallel_overhead_cycles o ~threads:2 ~chunks_per_thread:1 in
  let b = Overhead.parallel_overhead_cycles o ~threads:8 ~chunks_per_thread:1 in
  check Alcotest.bool "grows with team" true (b > a);
  let c = Overhead.parallel_overhead_cycles o ~threads:2 ~chunks_per_thread:9 in
  check Alcotest.bool "grows with chunks" true (c > a);
  check Alcotest.int "loop overhead linear"
    (10 * o.Overhead.loop_per_iter)
    (Overhead.loop_overhead_cycles o ~iters:10)

let () =
  Alcotest.run "ompsched"
    [
      ( "schedule",
        [
          Alcotest.test_case "round robin" `Quick test_owner_round_robin;
          Alcotest.test_case "iters of thread" `Quick test_iters_of_thread;
          Alcotest.test_case "nth iter" `Quick test_nth_iter;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "block chunk" `Quick test_block_chunk;
          Alcotest.test_case "chunk runs" `Quick test_chunk_runs_total;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_owner_consistent;
          QCheck_alcotest.to_alcotest prop_counts_sum;
          QCheck_alcotest.to_alcotest prop_count_matches_list;
          QCheck_alcotest.to_alcotest prop_nth_matches_list;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic streams" `Quick
            test_prng_deterministic;
          Alcotest.test_case "stream independence" `Quick
            test_prng_stream_independence;
          QCheck_alcotest.to_alcotest prop_pick_victim_uniform;
        ] );
      ( "dispatch",
        [
          QCheck_alcotest.to_alcotest prop_plan_partitions;
          QCheck_alcotest.to_alcotest prop_plan_replays;
          QCheck_alcotest.to_alcotest prop_plan_static_equiv;
          QCheck_alcotest.to_alcotest prop_no_steals_without_stealing;
        ] );
      ("team", [ Alcotest.test_case "sockets" `Quick test_team ]);
      ("overhead", [ Alcotest.test_case "formulas" `Quick test_overhead ]);
    ]
