(* Tests for the cache simulator: LRU stacks (against a reference model),
   set-associative caches, private hierarchies, and the MESI-coherent
   multicore with true/false-sharing classification, checked access for
   access against the hash-indexed model in coherence_ref.ml. *)

open Cachesim

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Lru_stack vs a reference implementation                             *)
(* ------------------------------------------------------------------ *)

module Ref_lru = struct
  type t = { mutable entries : (int * int) list; cap : int }

  let create cap = { entries = []; cap }

  let access t k v =
    let removed = List.remove_assoc k t.entries in
    t.entries <- (k, v) :: removed;
    if List.length t.entries > t.cap then begin
      let rec split acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split (x :: acc) rest
      in
      let keep, evicted = split [] t.entries in
      t.entries <- keep;
      Some evicted
    end
    else None

  let remove t k =
    let r = List.assoc_opt k t.entries in
    t.entries <- List.remove_assoc k t.entries;
    r

  let touch t k =
    match List.assoc_opt k t.entries with
    | None -> false
    | Some v ->
        t.entries <- (k, v) :: List.remove_assoc k t.entries;
        true

  let find t k = List.assoc_opt k t.entries
  let clear t = t.entries <- []

  let distance t k =
    let rec go i = function
      | [] -> None
      | (k', _) :: rest -> if k' = k then Some i else go (i + 1) rest
    in
    go 0 t.entries

  let to_alist t = t.entries
end

let test_cache_geom_validation () =
  let v size line assoc =
    Archspec.Cache_geom.v ~name:"t" ~size_bytes:size ~line_bytes:line
      ~associativity:assoc ()
  in
  (match v 1024 48 2 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "non-power-of-two line");
  (match v 1000 64 2 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "size not multiple of line*assoc");
  (match v 1024 64 0 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "zero associativity");
  let g = v 1024 64 2 in
  check Alcotest.int "lines" 16 (Archspec.Cache_geom.lines g);
  check Alcotest.int "sets" 8 (Archspec.Cache_geom.sets g);
  check Alcotest.bool "not fully assoc" false
    (Archspec.Cache_geom.fully_associative g);
  check Alcotest.int "line of addr" 2
    (Archspec.Cache_geom.line_of_addr g 130);
  let fa = v 1024 64 16 in
  check Alcotest.bool "fully assoc" true
    (Archspec.Cache_geom.fully_associative fa)

let test_arch_helpers () =
  let a = Archspec.Arch.paper_machine in
  check Alcotest.int "sockets" 4 (Archspec.Arch.sockets a);
  check Alcotest.int "line" 64 (Archspec.Arch.line_bytes a);
  check (Alcotest.float 1e-12) "cycles to seconds" 1e-9
    (Archspec.Arch.cycles_to_seconds a 2.2);
  check Alcotest.bool "pp smoke" true
    (String.length (Format.asprintf "%a" Archspec.Arch.pp a) > 20)

let test_lru_basic () =
  let s = Lru_stack.create ~capacity:2 in
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "no evict" None (Lru_stack.access s 1 "a");
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "no evict 2" None (Lru_stack.access s 2 "b");
  (* touch 1 so 2 becomes LRU *)
  ignore (Lru_stack.access s 1 "a'");
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "evicts 2" (Some (2, "b")) (Lru_stack.access s 3 "c");
  check (Alcotest.option Alcotest.string) "payload updated" (Some "a'")
    (Lru_stack.find s 1);
  check (Alcotest.option Alcotest.int) "distance of MRU" (Some 0)
    (Lru_stack.distance s 3);
  check (Alcotest.option Alcotest.int) "distance of 1" (Some 1)
    (Lru_stack.distance s 1)

let test_lru_update_remove () =
  let s = Lru_stack.create ~capacity:4 in
  ignore (Lru_stack.access s 1 10);
  ignore (Lru_stack.access s 2 20);
  check Alcotest.bool "update hits" true (Lru_stack.update s 1 (fun v -> v + 1));
  check (Alcotest.option Alcotest.int) "updated" (Some 11) (Lru_stack.find s 1);
  (* update must not change recency: 1 is still LRU *)
  check (Alcotest.option Alcotest.int) "recency unchanged" (Some 1)
    (Lru_stack.distance s 1);
  check Alcotest.bool "update miss" false (Lru_stack.update s 9 Fun.id);
  check (Alcotest.option Alcotest.int) "remove" (Some 11) (Lru_stack.remove s 1);
  check Alcotest.bool "gone" false (Lru_stack.mem s 1);
  Lru_stack.clear s;
  check Alcotest.int "cleared" 0 (Lru_stack.size s)

type op =
  | Access of int * int  (* key, payload *)
  | Touch of int
  | Get of int
  | Remove of int
  | Remove_key of int
  | Clear

let op_gen =
  QCheck2.Gen.(
    let key = int_range 0 11 and payload = int_range 0 3 in
    frequency
      [
        (4, map2 (fun k v -> Access (k, v)) key payload);
        (2, map (fun k -> Touch k) key);
        (2, map (fun k -> Get k) key);
        (1, map (fun k -> Remove k) key);
        (1, map (fun k -> Remove_key k) key);
        (1, return Clear);
      ])

(* capacity-1 and unbounded stacks take the corner paths of the slot
   arrays: every insert evicts, or none does and the arrays keep growing *)
let capacity_gen =
  QCheck2.Gen.(
    frequency [ (4, int_range 1 6); (1, return 1); (1, return max_int) ])

let prop_lru_matches_reference =
  QCheck2.Test.make ~name:"Lru_stack matches reference model" ~count:300
    QCheck2.Gen.(pair capacity_gen (list_size (int_range 0 120) op_gen))
    (fun (cap, ops) ->
      let s = Lru_stack.create ~capacity:cap in
      let r = Ref_lru.create cap in
      List.for_all
        (fun op ->
          let same_result, key =
            match op with
            | Access (k, v) -> (Lru_stack.access s k v = Ref_lru.access r k v, k)
            | Touch k -> (Lru_stack.touch s k = Ref_lru.touch r k, k)
            | Get k ->
                let expect = Ref_lru.find r k in
                ( Lru_stack.find s k = expect
                  && Lru_stack.get s k ~default:(-1)
                     = Option.value expect ~default:(-1),
                  k )
            | Remove k -> (Lru_stack.remove s k = Ref_lru.remove r k, k)
            | Remove_key k ->
                (Lru_stack.remove_key s k = (Ref_lru.remove r k <> None), k)
            | Clear ->
                Lru_stack.clear s;
                Ref_lru.clear r;
                (true, 0)
          in
          same_result
          && Lru_stack.to_alist s = Ref_lru.to_alist r
          && Lru_stack.size s = List.length (Ref_lru.to_alist r)
          && Lru_stack.distance s key = Ref_lru.distance r key)
        ops)

(* Targeted properties against the naive oracle: capacity eviction,
   re-reference promotion, and distance saturation. *)

let trace_gen =
  QCheck2.Gen.(
    pair (int_range 1 8) (list_size (int_range 1 80) (int_range 0 15)))

let prop_capacity_eviction =
  QCheck2.Test.make ~name:"capacity eviction is LRU and bounded" ~count:300
    trace_gen (fun (cap, keys) ->
      let s = Lru_stack.create ~capacity:cap in
      let r = Ref_lru.create cap in
      List.for_all
        (fun k ->
          (* the incoming key must never be the eviction victim, the
             victim is the oracle's bottom entry, and size stays
             within capacity *)
          let expect =
            if Ref_lru.distance r k <> None then None
            else if List.length (Ref_lru.to_alist r) < cap then None
            else
              match List.rev (Ref_lru.to_alist r) with
              | (victim, _) :: _ -> Some victim
              | [] -> None
          in
          let evicted = Lru_stack.access s k k in
          ignore (Ref_lru.access r k k);
          Option.map fst evicted = expect
          && (match evicted with
             | Some (victim, _) -> victim <> k
             | None -> true)
          && Lru_stack.size s <= cap)
        keys)

let prop_rereference_promotion =
  QCheck2.Test.make ~name:"re-reference promotes to MRU" ~count:300
    trace_gen (fun (cap, keys) ->
      let s = Lru_stack.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Lru_stack.access s k k);
          (* the just-touched key is at distance 0, and a second access
             (or touch) keeps the stack unchanged *)
          Lru_stack.distance s k = Some 0
          &&
          let before = Lru_stack.to_alist s in
          Lru_stack.touch s k && Lru_stack.to_alist s = before)
        keys)

let prop_distance_saturation =
  QCheck2.Test.make ~name:"distances saturate below capacity" ~count:300
    trace_gen (fun (cap, keys) ->
      let s = Lru_stack.create ~capacity:cap in
      List.iter (fun k -> ignore (Lru_stack.access s k k)) keys;
      (* every resident distance is a distinct value in [0, size) —
         eviction keeps distances strictly below capacity, so an LRU
         cache of [cap] lines hits exactly distance < cap *)
      let ds =
        List.filter_map
          (fun (k, _) -> Lru_stack.distance s k)
          (Lru_stack.to_alist s)
      in
      List.length ds = Lru_stack.size s
      && List.for_all (fun d -> d >= 0 && d < cap) ds
      && List.sort_uniq compare ds = List.init (List.length ds) Fun.id
      && List.for_all
           (fun k ->
             match Lru_stack.distance s k with
             | Some d -> d < cap
             | None -> not (Lru_stack.mem s k))
           (List.init 16 Fun.id))

(* ------------------------------------------------------------------ *)
(* Set_assoc                                                           *)
(* ------------------------------------------------------------------ *)

let test_set_assoc () =
  (* 2 sets, 2 ways: lines 0,2,4.. map to set 0 *)
  let geom =
    Archspec.Cache_geom.v ~name:"t" ~size_bytes:(4 * 64) ~line_bytes:64
      ~associativity:2 ()
  in
  let c = Set_assoc.create geom in
  check Alcotest.int "sets" 2 (Archspec.Cache_geom.sets geom);
  (match Set_assoc.access c 0 with `Miss None -> () | _ -> fail "cold 0");
  (match Set_assoc.access c 2 with `Miss None -> () | _ -> fail "cold 2");
  (match Set_assoc.access c 0 with `Hit -> () | _ -> fail "hit 0");
  (* third line in set 0 evicts LRU (=2) *)
  (match Set_assoc.access c 4 with
  | `Miss (Some 2) -> ()
  | _ -> fail "conflict evicts 2");
  (* set 1 unaffected *)
  (match Set_assoc.access c 1 with `Miss None -> () | _ -> fail "set 1 cold");
  check Alcotest.bool "invalidate" true (Set_assoc.invalidate c 0);
  check Alcotest.bool "gone" false (Set_assoc.mem c 0)

(* ------------------------------------------------------------------ *)
(* Private_cache (the reference model's private hierarchy)             *)
(* ------------------------------------------------------------------ *)

module Private_cache = Coherence_ref.Private_cache

let tiny_l1 =
  Archspec.Cache_geom.v ~name:"L1" ~size_bytes:(2 * 64) ~line_bytes:64
    ~associativity:2 ()

let tiny_l2 =
  Archspec.Cache_geom.v ~name:"L2" ~size_bytes:(4 * 64) ~line_bytes:64
    ~associativity:4 ()

let test_private_cache_levels () =
  let p = Private_cache.create ~l1:tiny_l1 ~l2:tiny_l2 in
  (match Private_cache.access p 1 with
  | Private_cache.Priv_miss, None -> ()
  | _ -> fail "cold miss");
  (match Private_cache.access p 1 with
  | Private_cache.L1_hit, None -> ()
  | _ -> fail "L1 hit");
  ignore (Private_cache.access p 2);
  ignore (Private_cache.access p 3);
  (* line 1 fell out of 2-line L1 but stays in 4-line L2 *)
  match Private_cache.access p 1 with
  | Private_cache.L2_hit, None -> ()
  | _ -> fail "L2 hit after L1 eviction"

let test_private_cache_eviction_reported () =
  let p = Private_cache.create ~l1:tiny_l1 ~l2:tiny_l2 in
  List.iter (fun l -> ignore (Private_cache.access p l)) [ 1; 2; 3; 4 ];
  match Private_cache.access p 5 with
  | Private_cache.Priv_miss, Some 1 ->
      check Alcotest.bool "1 fully gone" false (Private_cache.holds p 1)
  | _ -> fail "L2 eviction of line 1 must be reported"

let prop_private_inclusion =
  QCheck2.Test.make ~name:"L1 content is included in L2" ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) (int_range 0 15))
    (fun lines ->
      let p = Private_cache.create ~l1:tiny_l1 ~l2:tiny_l2 in
      List.iter (fun l -> ignore (Private_cache.access p l)) lines;
      (* any line that hits in L1 must also be in the private hierarchy
         (holds), and invalidation drops both levels *)
      List.for_all
        (fun l ->
          match Private_cache.access p l with
          | Private_cache.L1_hit, _ -> Private_cache.holds p l
          | _ -> true)
        lines)

(* ------------------------------------------------------------------ *)
(* Coherence                                                           *)
(* ------------------------------------------------------------------ *)

let arch = Archspec.Arch.paper_machine

(* an address space larger than any test below touches *)
let lines = 1024

let test_word_mask () =
  check Alcotest.int "first word" 0b1
    (Coherence.word_mask ~line_bytes:64 ~addr:0 ~size:4);
  check Alcotest.int "double spans 2 words" 0b1100
    (Coherence.word_mask ~line_bytes:64 ~addr:(64 + 8) ~size:8);
  check Alcotest.int "last word" (1 lsl 15)
    (Coherence.word_mask ~line_bytes:64 ~addr:60 ~size:4)

let test_coherence_cold_then_hit () =
  let c = Coherence.create ~cores:2 ~lines arch in
  let r = Coherence.read c ~core:0 ~addr:0 ~size:8 in
  check Alcotest.bool "cold" true (r.Coherence.miss = Some Coherence.Cold);
  let r2 = Coherence.read c ~core:0 ~addr:8 ~size:8 in
  check Alcotest.bool "same line hits L1" true (r2.Coherence.miss = None);
  check Alcotest.int "L1 latency" arch.Archspec.Arch.l1.Archspec.Cache_geom.hit_latency
    r2.Coherence.latency

let test_coherence_write_invalidates () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:8);
  ignore (Coherence.read c ~core:1 ~addr:0 ~size:8);
  check (Alcotest.list Alcotest.int) "both hold" [ 0; 1 ]
    (Coherence.holders_of_line c 0);
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  check (Alcotest.list Alcotest.int) "only writer" [ 0 ]
    (Coherence.holders_of_line c 0);
  check (Alcotest.option Alcotest.int) "dirty owner" (Some 0)
    (Coherence.dirty_owner_of_line c 0);
  let st1 = Coherence.stats_of_core c 1 in
  check Alcotest.int "inval received" 1 st1.Stats.invalidations_received

let test_false_vs_true_sharing () =
  let c = Coherence.create ~cores:2 ~lines arch in
  (* core1 caches the line, core0 writes word 0, core1 re-reads word 8:
     untouched word => false sharing *)
  ignore (Coherence.read c ~core:1 ~addr:8 ~size:8);
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  let r = Coherence.read c ~core:1 ~addr:8 ~size:8 in
  check Alcotest.bool "false sharing" true
    (r.Coherence.miss = Some Coherence.Coherence_false);
  (* now core0 writes word 8 and core1 reads word 8: true sharing *)
  ignore (Coherence.write c ~core:0 ~addr:8 ~size:8);
  let r2 = Coherence.read c ~core:1 ~addr:8 ~size:8 in
  check Alcotest.bool "true sharing" true
    (r2.Coherence.miss = Some Coherence.Coherence_true);
  let agg = Coherence.aggregate_stats c in
  check Alcotest.int "one FS miss" 1 agg.Stats.coherence_false;
  check Alcotest.int "one TS miss" 1 agg.Stats.coherence_true

let test_c2c_transfer () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  let r = Coherence.read c ~core:1 ~addr:0 ~size:8 in
  check Alcotest.bool "c2c source" true (r.Coherence.source = Coherence.C2C);
  check Alcotest.int "c2c latency" arch.Archspec.Arch.coherence_latency
    r.Coherence.latency;
  (* the dirty copy was downgraded *)
  check (Alcotest.option Alcotest.int) "no dirty owner" None
    (Coherence.dirty_owner_of_line c 0)

let test_upgrade_on_shared_write () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:8);
  ignore (Coherence.read c ~core:1 ~addr:0 ~size:8);
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  let st0 = Coherence.stats_of_core c 0 in
  check Alcotest.int "upgrade counted" 1 st0.Stats.upgrades

let test_silent_e_to_m () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:8);
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  let st0 = Coherence.stats_of_core c 0 in
  check Alcotest.int "no upgrade from E" 0 st0.Stats.upgrades;
  check Alcotest.int "no invalidations" 0 st0.Stats.invalidations_sent

let test_line_straddling_access () =
  let c = Coherence.create ~cores:1 ~lines arch in
  let r = Coherence.read c ~core:0 ~addr:60 ~size:8 in
  (* touches lines 0 and 1: two cold fetches *)
  check Alcotest.bool "latency of two fetches" true
    (r.Coherence.latency >= 2 * arch.Archspec.Arch.mem_latency);
  let st = Coherence.stats_of_core c 0 in
  check Alcotest.int "two cold misses" 2 st.Stats.cold_misses

let test_l3_shared_within_socket () =
  let c = Coherence.create ~cores:2 ~lines arch in
  (* core0 loads, evicts nothing; core1's miss on a clean line should hit
     the shared L3 of the socket (cores 0 and 1 share a socket) *)
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:8);
  let r = Coherence.read c ~core:1 ~addr:0 ~size:8 in
  check Alcotest.bool "L3 hit" true (r.Coherence.source = Coherence.L3)

(* qcheck: MESI invariant — at most one dirty owner, and the dirty owner
   holds the line *)
let prop_single_dirty_owner =
  let acc_gen =
    QCheck2.Gen.(
      map3
        (fun core addr write -> (abs core mod 3, abs addr mod 512 * 4, write))
        small_int small_int bool)
  in
  QCheck2.Test.make ~name:"at most one dirty owner per line" ~count:100
    QCheck2.Gen.(list_size (int_range 1 120) acc_gen)
    (fun ops ->
      let c =
        Coherence.create ~cores:3 ~lines Archspec.Arch.small_test_machine
      in
      List.iter
        (fun (core, addr, write) ->
          ignore (Coherence.access c ~core ~addr ~size:4 ~write))
        ops;
      List.for_all
        (fun line ->
          match Coherence.dirty_owner_of_line c line with
          | None -> true
          | Some o ->
              let holders = Coherence.holders_of_line c line in
              holders = [ o ])
        (List.init 40 (fun l -> l)))

let test_read_hit_keeps_dirty () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:8);
  (* the owner's own read hit must not disturb the Modified state *)
  ignore (Coherence.read c ~core:0 ~addr:8 ~size:8);
  check (Alcotest.option Alcotest.int) "still dirty" (Some 0)
    (Coherence.dirty_owner_of_line c 0)

let test_writeback_on_eviction () =
  let arch = Archspec.Arch.small_test_machine in
  let c = Coherence.create ~cores:1 ~lines arch in
  (* dirty a line, then push enough lines through the tiny private caches
     to evict it *)
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:4);
  let lines = Archspec.Cache_geom.lines arch.Archspec.Arch.l2 in
  for l = 1 to lines + 2 do
    ignore (Coherence.read c ~core:0 ~addr:(l * 64) ~size:4)
  done;
  let st = Coherence.stats_of_core c 0 in
  check Alcotest.bool "writeback happened" true (st.Stats.writebacks >= 1);
  check (Alcotest.option Alcotest.int) "no dirty owner" None
    (Coherence.dirty_owner_of_line c 0);
  (* refetch finds it clean in L3 (written back there) *)
  let r = Coherence.read c ~core:0 ~addr:0 ~size:4 in
  check Alcotest.bool "L3 after writeback" true
    (r.Coherence.source = Coherence.L3);
  check Alcotest.bool "classified capacity" true
    (r.Coherence.miss = Some Coherence.Capacity)

let test_upgrade_latency_charged () =
  let c = Coherence.create ~cores:2 ~lines arch in
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:8);
  ignore (Coherence.read c ~core:1 ~addr:0 ~size:8);
  let hit = Coherence.read c ~core:0 ~addr:0 ~size:8 in
  let upg = Coherence.write c ~core:0 ~addr:0 ~size:8 in
  check Alcotest.bool "upgrade costs more than a plain hit" true
    (upg.Coherence.latency > hit.Coherence.latency)

(* A line's holders are one int: core 62 takes its top bit, and a 64th
   core would share a lower core's bit, so it is refused. *)
let test_core_limit () =
  let c = Coherence.create ~cores:63 ~lines arch in
  ignore (Coherence.read c ~core:62 ~addr:0 ~size:4);
  ignore (Coherence.read c ~core:0 ~addr:0 ~size:4);
  check (Alcotest.list Alcotest.int) "both hold" [ 0; 62 ]
    (Coherence.holders_of_line c 0);
  ignore (Coherence.write c ~core:0 ~addr:0 ~size:4);
  check (Alcotest.list Alcotest.int) "core 62 invalidated" [ 0 ]
    (Coherence.holders_of_line c 0);
  check Alcotest.int "inval received" 1
    (Coherence.stats_of_core c 62).Stats.invalidations_received;
  match Coherence.create ~cores:64 ~lines arch with
  | exception Invalid_argument _ -> ()
  | _ -> fail "64 cores must be refused"

let test_address_bounds () =
  let c = Coherence.create ~cores:1 ~lines:2 arch in
  ignore (Coherence.read c ~core:0 ~addr:120 ~size:8);
  List.iter
    (fun (addr, size) ->
      match Coherence.read c ~core:0 ~addr ~size with
      | exception Invalid_argument _ -> ()
      | _ -> fail (Printf.sprintf "addr %d size %d is outside" addr size))
    [ (124, 8); (128, 1); (-4, 4) ]

(* ------------------------------------------------------------------ *)
(* Coherence against the hash-indexed reference model                  *)
(* ------------------------------------------------------------------ *)

let string_of_result (r : Coherence.result) =
  Printf.sprintf "{latency %d; source %s; miss %s}" r.Coherence.latency
    (match r.Coherence.source with
    | Coherence.L1 -> "L1"
    | L2 -> "L2"
    | L3 -> "L3"
    | C2C -> "C2C"
    | Memory -> "Memory")
    (match r.Coherence.miss with
    | None -> "-"
    | Some Coherence.Cold -> "cold"
    | Some Capacity -> "capacity"
    | Some Coherence_true -> "true"
    | Some Coherence_false -> "false")

let stats = Alcotest.testable Stats.pp ( = )

(* every core's counters, and the holders and dirty owner of every line *)
let agrees_at_end ~cores ~lines model reference =
  List.for_all
    (fun core ->
      Coherence.stats_of_core model core
      = Coherence_ref.stats_of_core reference core)
    (List.init cores Fun.id)
  && List.for_all
       (fun line ->
         Coherence.holders_of_line model line
         = Coherence_ref.holders_of_line reference line
         && Coherence.dirty_owner_of_line model line
            = Coherence_ref.dirty_owner_of_line reference line)
       (List.init lines Fun.id)

(* On small_test_machine (16-line L1, 64-line L2, 256-line L3, four cores
   a socket): 1-12 cores, so up to three sockets; addresses over 1,024
   lines, half of them in an 8-line window where cores share lines and
   half spread so that every level evicts; 1-16-byte reads and writes,
   some straddling a line. *)
let prop_matches_reference =
  let small = Archspec.Arch.small_test_machine in
  let gen =
    QCheck2.Gen.(
      int_range 1 12 >>= fun cores ->
      let addr =
        oneof [ int_bound ((8 * 64) - 1); int_bound ((lines * 64) - 17) ]
      in
      list_size (int_range 1 1500)
        (quad (int_bound (cores - 1)) addr (int_range 1 16) bool)
      >|= fun ops -> (cores, ops))
  in
  let print (cores, ops) =
    Printf.sprintf "%d cores: %s" cores
      (String.concat "; "
         (List.map
            (fun (core, addr, size, write) ->
              Printf.sprintf "%s c%d @%d+%d"
                (if write then "W" else "R")
                core addr size)
            ops))
  in
  QCheck2.Test.make ~name:"matches the hash-indexed model"
    ~count:150 ~print gen (fun (cores, ops) ->
      let model = Coherence.create ~cores ~lines small in
      let reference = Coherence_ref.create ~cores small in
      List.iteri
        (fun i (core, addr, size, write) ->
          let got = Coherence.access model ~core ~addr ~size ~write
          and want = Coherence_ref.access reference ~core ~addr ~size ~write in
          if got <> want then
            QCheck2.Test.fail_reportf "access %d: %s, reference %s" i
              (string_of_result got) (string_of_result want))
        ops;
      agrees_at_end ~cores ~lines model reference)

(* The simulator's own traces on the paper machine at 48 cores (four
   sockets): every access's latency, then the counters and directory. *)
let test_paper_traces_match_reference () =
  let cores = 48 in
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let checked = Kernels.Kernel.parse k in
      let model = Execsim.Run.coherence ~arch ~threads:cores checked in
      let reference = Coherence_ref.create ~cores arch in
      let n = ref 0 in
      let sink =
        {
          Execsim.Interp.null_sink with
          mem_access =
            (fun ~tid ~addr ~size ~write ->
              let got =
                Coherence.access_latency model ~core:tid ~addr ~size ~write
              and want =
                Coherence_ref.access_latency reference ~core:tid ~addr ~size
                  ~write
              in
              if got <> want then
                fail
                  (Printf.sprintf "%s access %d: latency %d, reference %d"
                     k.Kernels.Kernel.name !n got want);
              incr n);
        }
      in
      let it =
        Execsim.Interp.create ~threads:cores ~chunk_override:1 ~sink checked
      in
      Option.iter
        (fun func -> Execsim.Interp.exec it ~func)
        k.Kernels.Kernel.init_func;
      Execsim.Interp.exec it ~func:k.Kernels.Kernel.func;
      check stats (k.Kernels.Kernel.name ^ " stats")
        (Coherence_ref.aggregate_stats reference)
        (Coherence.aggregate_stats model);
      let lines =
        (Loopir.Layout.total_bytes (Execsim.Interp.layout it) + 63) / 64
      in
      check Alcotest.bool
        (k.Kernels.Kernel.name ^ " directory")
        true
        (agrees_at_end ~cores ~lines model reference))
    [
      Kernels.Heat.kernel ~rows:10 ~cols:1922 ();
      Kernels.Dft.kernel ~freqs:8 ~samples:1920 ();
    ]

(* ------------------------------------------------------------------ *)
(* Int_table vs Hashtbl                                                *)
(* ------------------------------------------------------------------ *)

let prop_int_table_matches_hashtbl =
  (* random set/remove/get workloads, keys from a small range so probes
     collide and deletions exercise the backward shift *)
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun k v -> `Set (k, v)) (int_range 0 40) (int_range 0 1000);
          map (fun k -> `Remove k) (int_range 0 40);
          map (fun k -> `Get k) (int_range 0 40);
        ])
  in
  QCheck2.Test.make ~name:"Int_table matches Hashtbl" ~count:300
    QCheck2.Gen.(list_size (int_range 0 120) op_gen)
    (fun ops ->
      let t = Int_table.create ~initial:2 () in
      let h = Hashtbl.create 16 in
      List.iter
        (function
          | `Set (k, v) ->
              Int_table.set t k v;
              Hashtbl.replace h k v
          | `Remove k ->
              let was = Int_table.remove t k in
              if was <> Hashtbl.mem h k then
                QCheck2.Test.fail_report "remove presence disagrees";
              Hashtbl.remove h k
          | `Get k ->
              if
                Int_table.find_opt t k <> Hashtbl.find_opt h k
                || Int_table.mem t k <> Hashtbl.mem h k
                || Int_table.get t k ~default:(-1)
                   <> Option.value (Hashtbl.find_opt h k) ~default:(-1)
              then QCheck2.Test.fail_report "lookup disagrees")
        ops;
      if Int_table.length t <> Hashtbl.length h then
        QCheck2.Test.fail_report "length disagrees";
      let sum = Int_table.fold (fun k v acc -> (k * 31) + v + acc) t 0 in
      let hsum = Hashtbl.fold (fun k v acc -> (k * 31) + v + acc) h 0 in
      sum = hsum)

let test_int_table_slots () =
  let t = Int_table.create () in
  Int_table.set t 7 "a";
  Int_table.set t 12 "b";
  let s = Int_table.find_slot t 7 in
  check Alcotest.bool "slot found" true (s >= 0);
  check Alcotest.int "key at slot" 7 (Int_table.key_at t s);
  check Alcotest.string "value at slot" "a" (Int_table.value_at t s);
  Int_table.set_at t s "c";
  check Alcotest.(option string) "set_at visible" (Some "c")
    (Int_table.find_opt t 7);
  check Alcotest.int "absent is -1" (-1) (Int_table.find_slot t 99);
  Int_table.clear t;
  check Alcotest.int "clear empties" 0 (Int_table.length t)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation                                             *)
(* ------------------------------------------------------------------ *)

(* The hot paths promise to allocate nothing once their tables have grown
   to the working set: run each loop once to warm it, then again with
   Gc.minor_words watching. *)
let minor_words_of f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_no_alloc name f =
  check (Alcotest.float 0.) (name ^ " allocates nothing") 0. (minor_words_of f)

let test_steady_state_no_alloc () =
  let n = 1000 and rounds = 200 in
  let keys = Array.init n (fun i -> i * 7919) in
  let sink = ref 0 in
  let t = Int_table.create () in
  Array.iter (fun k -> Int_table.set t k k) keys;
  check_no_alloc "Int_table.find_slot/get/set_at" (fun () ->
      for _ = 1 to rounds do
        for i = 0 to n - 1 do
          let k = Array.unsafe_get keys i in
          let s = Int_table.find_slot t k in
          Int_table.set_at t s (Int_table.value_at t s + 1);
          sink := !sink + Int_table.get t (k + 1) ~default:0
        done
      done);
  (* a stack at capacity: every miss evicts, [remove_key] frees a slot
     that the next insertion reuses *)
  let cap = 64 in
  let s = Lru_stack.create ~capacity:cap in
  check_no_alloc "Lru_stack.touch/get/add/remove_key" (fun () ->
      for r = 1 to rounds do
        for i = 0 to (2 * cap) - 1 do
          let k = Array.unsafe_get keys i in
          if not (Lru_stack.touch s k) then
            ignore (Lru_stack.add s k (r land 3));
          sink := !sink + Lru_stack.get s k ~default:0;
          if i land 7 = 0 then ignore (Lru_stack.remove_key s k)
        done
      done);
  (* two cores sharing and evicting lines through the tiny hierarchy:
     hits, upgrades, invalidations, write-backs and refetches *)
  let m = Coherence.create ~cores:2 ~lines Archspec.Arch.small_test_machine in
  check_no_alloc "Coherence.access_latency" (fun () ->
      for i = 0 to (rounds * 50) - 1 do
        sink :=
          !sink
          + Coherence.access_latency m ~core:(i land 1)
              ~addr:(i * 52 mod 4096) ~size:8 ~write:(i mod 3 = 0)
      done);
  (* first touches on the paper machine at 48 cores: the measured loop
     only touches lines the warm-up never did.  The warm-up grows every
     recency list past the measured loop's needs (300 then 320 lines a
     core, 3,600 then 3,840 a socket: inside 512 and 4,096 slots). *)
  let cores = 48 in
  let fresh = Coherence.create ~cores ~lines:(cores * 320) arch in
  let touch lo hi =
    for line = lo to hi - 1 do
      sink :=
        !sink
        + Coherence.access_latency fresh ~core:(line mod cores)
            ~addr:(line * 64) ~size:8 ~write:(line land 1 = 0)
    done
  in
  touch 0 (cores * 300);
  let before = Gc.minor_words () in
  touch (cores * 300) (cores * 320);
  check (Alcotest.float 0.)
    "Coherence.access_latency on first touches allocates nothing" 0.
    (Gc.minor_words () -. before);
  let c = Fsmodel.Fs_counter.create ~threads:4 ~capacity:32 in
  check_no_alloc "Fs_counter.process" (fun () ->
      for i = 0 to (rounds * 50) - 1 do
        sink :=
          !sink
          + Fsmodel.Fs_counter.process c ~me:(i land 3) ~line:(i * 37 mod 100)
              ~written:(i mod 3 = 0)
      done);
  (* streaming: each of 8 threads walks its own 10,000 lines twice, so
     pages fill, empty and go back to the pool, then come out of it *)
  let c = Fsmodel.Fs_counter.create ~threads:8 ~capacity:32 in
  check_no_alloc "Fs_counter.process streaming through pages" (fun () ->
      for _ = 1 to 2 do
        for k = 0 to 9_999 do
          for me = 0 to 7 do
            sink :=
              !sink
              + Fsmodel.Fs_counter.process c ~me ~line:((me * 10_000) + k)
                  ~written:(k land 1 = 0)
          done
        done
      done);
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* Bitset / popcount                                                   *)
(* ------------------------------------------------------------------ *)

let naive_popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let prop_popcount_matches_naive =
  (* spread bits across the full 63-bit word: the SWAR byte-sum only
     breaks when high bytes are populated, so small ints never catch the
     missing 32-bit mask *)
  QCheck2.Test.make ~name:"SWAR popcount matches the bit loop" ~count:500
    QCheck2.Gen.(
      map2
        (fun hi lo -> (hi lsl 31) lxor lo)
        (int_bound ((1 lsl 31) - 1))
        (int_bound ((1 lsl 31) - 1)))
    (fun x -> Bitset.popcount x = naive_popcount x)

let test_popcount_edges () =
  check Alcotest.int "0" 0 (Bitset.popcount 0);
  check Alcotest.int "max_int" 62 (Bitset.popcount max_int);
  check Alcotest.int "single high bit" 1 (Bitset.popcount (1 lsl 62));
  check Alcotest.int "62-thread mask" 62 (Bitset.popcount ((1 lsl 62) - 1))

let test_stats_sum_sub () =
  let a = Stats.create () in
  a.Stats.loads <- 5;
  a.Stats.coherence_false <- 2;
  let b = Stats.create () in
  b.Stats.loads <- 3;
  let s = Stats.sum [ a; b ] in
  check Alcotest.int "sum loads" 8 s.Stats.loads;
  let d = Stats.sub s b in
  check Alcotest.int "sub loads" 5 d.Stats.loads;
  check Alcotest.int "accesses" 8 (Stats.accesses s);
  check Alcotest.int "coh misses" 2 (Stats.coherence_misses s)

let () =
  Alcotest.run "cachesim"
    [
      ( "archspec",
        [
          Alcotest.test_case "geometry validation" `Quick
            test_cache_geom_validation;
          Alcotest.test_case "arch helpers" `Quick test_arch_helpers;
        ] );
      ( "lru_stack",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "update/remove" `Quick test_lru_update_remove;
          QCheck_alcotest.to_alcotest prop_lru_matches_reference;
          QCheck_alcotest.to_alcotest prop_capacity_eviction;
          QCheck_alcotest.to_alcotest prop_rereference_promotion;
          QCheck_alcotest.to_alcotest prop_distance_saturation;
        ] );
      ("set_assoc", [ Alcotest.test_case "sets" `Quick test_set_assoc ]);
      ( "private_cache",
        [
          Alcotest.test_case "levels" `Quick test_private_cache_levels;
          Alcotest.test_case "eviction reported" `Quick
            test_private_cache_eviction_reported;
          QCheck_alcotest.to_alcotest prop_private_inclusion;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "word mask" `Quick test_word_mask;
          Alcotest.test_case "cold then hit" `Quick
            test_coherence_cold_then_hit;
          Alcotest.test_case "write invalidates" `Quick
            test_coherence_write_invalidates;
          Alcotest.test_case "false vs true sharing" `Quick
            test_false_vs_true_sharing;
          Alcotest.test_case "cache-to-cache" `Quick test_c2c_transfer;
          Alcotest.test_case "upgrade" `Quick test_upgrade_on_shared_write;
          Alcotest.test_case "silent E->M" `Quick test_silent_e_to_m;
          Alcotest.test_case "line straddle" `Quick
            test_line_straddling_access;
          Alcotest.test_case "shared L3" `Quick test_l3_shared_within_socket;
          QCheck_alcotest.to_alcotest prop_single_dirty_owner;
          Alcotest.test_case "read hit keeps dirty" `Quick
            test_read_hit_keeps_dirty;
          Alcotest.test_case "writeback on eviction" `Quick
            test_writeback_on_eviction;
          Alcotest.test_case "core limit" `Quick test_core_limit;
          Alcotest.test_case "address bounds" `Quick test_address_bounds;
          Alcotest.test_case "upgrade latency" `Quick
            test_upgrade_latency_charged;
        ] );
      ( "coherence_ref",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "paper traces at 48 cores" `Quick
            test_paper_traces_match_reference;
        ] );
      ( "int_table",
        [
          QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
          Alcotest.test_case "slot API" `Quick test_int_table_slots;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady-state hot paths" `Quick
            test_steady_state_no_alloc;
        ] );
      ( "bitset",
        [
          QCheck_alcotest.to_alcotest prop_popcount_matches_naive;
          Alcotest.test_case "popcount edges" `Quick test_popcount_edges;
        ] );
      ("stats", [ Alcotest.test_case "sum/sub" `Quick test_stats_sum_sub ]);
    ]
