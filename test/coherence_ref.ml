(* The hash-indexed MESI model that [Cachesim.Coherence] replaced, kept
   verbatim as the reference the line-indexed model is checked against,
   access for access: per-core private L1+L2 LRU stacks found by key
   ([Private_cache]), one L3 stack per socket, and a directory record
   with a per-core [pending] array per line, all behind int hash tables.
   Its results, stats and directory queries must equal the library's on
   every trace.  Unlike the library it does not bound the core count, so
   traces on more than 63 cores are outside its contract. *)

open Cachesim

(* One core's inclusive L1 + L2: fully associative LRU stacks of the
   configured capacities. *)
module Private_cache = struct
  type t = { l1 : unit Lru_stack.t; l2 : unit Lru_stack.t }

  type hit = L1_hit | L2_hit | Priv_miss

  let create ~l1 ~l2 =
    {
      l1 = Lru_stack.create ~capacity:(Archspec.Cache_geom.lines l1);
      l2 = Lru_stack.create ~capacity:(Archspec.Cache_geom.lines l2);
    }

  (* packed result codes for the allocation-free path; evicted lines are
     always >= 0, so small negatives are free *)
  let hit_l1 = -1
  let hit_l2 = -2
  let miss = -3

  (* a failed [touch] already proved the line absent from that level, so
     the fills go straight to [add] without a second lookup *)
  let access_fast t line =
    if Lru_stack.touch t.l1 line then hit_l1
    else if Lru_stack.touch t.l2 line then begin
      ignore (Lru_stack.add t.l1 line ());
      hit_l2
    end
    else begin
      (* fill both levels; an L2 victim is back-invalidated from L1
         (inclusion) and reported *)
      ignore (Lru_stack.add t.l1 line ());
      let victim = Lru_stack.add t.l2 line () in
      if victim = Lru_stack.no_key then miss
      else begin
        ignore (Lru_stack.remove_key t.l1 victim);
        victim
      end
    end

  let access t line =
    match access_fast t line with
    | -1 -> (L1_hit, None)
    | -2 -> (L2_hit, None)
    | -3 -> (Priv_miss, None)
    | victim -> (Priv_miss, Some victim)

  let invalidate t line =
    let in_l2 = Lru_stack.remove_key t.l2 line in
    let in_l1 = Lru_stack.remove_key t.l1 line in
    in_l1 || in_l2

  let holds t line = Lru_stack.mem t.l2 line || Lru_stack.mem t.l1 line
end

type source = Coherence.source = L1 | L2 | L3 | C2C | Memory

type miss_kind = Coherence.miss_kind =
  | Cold
  | Capacity
  | Coherence_true
  | Coherence_false

type result = Coherence.result = {
  latency : int;
  source : source;
  miss : miss_kind option;
}

type dir_entry = {
  mutable holders : int;  (* bitmask over cores *)
  mutable dirty : int;  (* core owning a Modified copy; -1 = none *)
  mutable dirty_words : int;
      (* words written by the current dirty owner since it acquired the
         line in Modified state; used to classify first-access misses that
         steal a dirty line (an RFO on a falsely-shared line is a
         false-sharing miss even if the requester never held the line) *)
  pending : int array;
      (* per core: mask of 4-byte words written remotely since this core
         lost its copy to an invalidation; 0 when the core was never
         invalidated on this line *)
}

type t = {
  arch : Archspec.Arch.t;
  cores : int;
  line_bytes : int;
  priv : Private_cache.t array;
  l3 : unit Lru_stack.t array;  (* one per socket *)
  dir : dir_entry Int_table.t;
  stats : Stats.t array;
  (* where the last [access_line] found its data and how it missed;
     immediate fields, so recording them costs no write barrier *)
  mutable last_source : source;
  mutable last_kind : miss_kind;
  mutable last_missed : bool;
}

let word_bytes = 4

let create ?cores (arch : Archspec.Arch.t) =
  let cores = match cores with Some c -> c | None -> arch.Archspec.Arch.cores in
  if cores < 1 then invalid_arg "Coherence.create: cores < 1";
  let sockets =
    (cores + arch.Archspec.Arch.cores_per_socket - 1)
    / arch.Archspec.Arch.cores_per_socket
  in
  {
    arch;
    cores;
    line_bytes = Archspec.Arch.line_bytes arch;
    priv =
      Array.init cores (fun _ ->
          Private_cache.create ~l1:arch.Archspec.Arch.l1
            ~l2:arch.Archspec.Arch.l2);
    l3 =
      Array.init sockets (fun _ ->
          Lru_stack.create
            ~capacity:(Archspec.Cache_geom.lines arch.Archspec.Arch.l3));
    dir = Int_table.create ();
    stats = Array.init cores (fun _ -> Stats.create ());
    last_source = L1;
    last_kind = Cold;
    last_missed = false;
  }

let socket_of t core = core / t.arch.Archspec.Arch.cores_per_socket

let word_mask ~line_bytes ~addr ~size =
  let off = addr mod line_bytes in
  let first = off / word_bytes in
  let last = (off + size - 1) / word_bytes in
  ((1 lsl (last - first + 1)) - 1) lsl first

let entry_of t line = Int_table.find_opt t.dir line

let bit core = 1 lsl core
let others_holding e core = e.holders land lnot (bit core)

(* A core's private hierarchy dropped a line (capacity eviction):
   directory forgets it; a dirty copy is written back. *)
let handle_eviction t core victim =
  let s = Int_table.find_slot t.dir victim in
  if s >= 0 then begin
    let e = Int_table.value_at t.dir s in
    e.holders <- e.holders land lnot (bit core);
    if e.dirty = core then begin
      e.dirty <- -1;
      e.dirty_words <- 0;
      t.stats.(core).Stats.writebacks <- t.stats.(core).Stats.writebacks + 1;
      (* the written-back line lands in the evictor's socket L3 *)
      ignore (Lru_stack.access t.l3.(socket_of t core) victim ())
    end;
    (* a voluntary eviction means the next miss is a capacity miss, not a
       coherence miss *)
    e.pending.(core) <- 0
  end

(* Invalidate every other holder of [line]; record the written words in
   their pending masks for later true/false-sharing classification. *)
let invalidate_others t core line e mask =
  let st = t.stats.(core) in
  for o = 0 to t.cores - 1 do
    if o <> core && e.holders land bit o <> 0 then begin
      ignore (Private_cache.invalidate t.priv.(o) line);
      e.holders <- e.holders land lnot (bit o);
      e.pending.(o) <- e.pending.(o) lor mask;
      st.Stats.invalidations_sent <- st.Stats.invalidations_sent + 1;
      t.stats.(o).Stats.invalidations_received <-
        t.stats.(o).Stats.invalidations_received + 1
    end
  done

let upgrade_latency t = (t.arch.Archspec.Arch.coherence_latency + 1) / 2

(* write-invalidate: drop all other copies, become Modified *)
let finish_write t core line e mask =
  if others_holding e core <> 0 then invalidate_others t core line e mask;
  if e.dirty = core then e.dirty_words <- e.dirty_words lor mask
  else e.dirty_words <- mask;
  e.dirty <- core

(* a private hit; only a write consults the directory *)
let hit t st ~core ~line ~mask ~write ~source ~base_latency =
  t.last_source <- source;
  t.last_missed <- false;
  let latency =
    if not write then
      (* read hit: no coherence state can change, skip the directory *)
      base_latency
    else begin
      let e =
        let s = Int_table.find_slot t.dir line in
        (* holding a line the directory does not know cannot happen *)
        assert (s >= 0);
        Int_table.value_at t.dir s
      in
      let latency =
        if not (Line_state.writable
                  (if e.dirty = core then Line_state.Modified
                   else if others_holding e core = 0 then Line_state.Exclusive
                   else Line_state.Shared))
        then begin
          (* write hit on a Shared line: upgrade *)
          st.Stats.upgrades <- st.Stats.upgrades + 1;
          base_latency + upgrade_latency t
        end
        else base_latency
      in
      finish_write t core line e mask;
      latency
    end
  in
  st.Stats.stall_cycles <- st.Stats.stall_cycles + latency;
  latency

(* a private miss on a line the directory knows: fetch it from a remote
   dirty copy, the socket L3 or memory, and classify the miss *)
let refetch t st ~core ~line ~mask e =
  (* words dirtied by a remote Modified copy, captured before the fetch
     downgrades it; -1 = no remote dirty owner *)
  let remote_dirty_words =
    if e.dirty >= 0 && e.dirty <> core then e.dirty_words else -1
  in
  let fetch_latency =
    if e.dirty >= 0 && e.dirty <> core then begin
      (* remote dirty copy: cache-to-cache transfer; the owner keeps a
         Shared copy on a read, loses it on a write (finish_write) *)
      let o = e.dirty in
      st.Stats.c2c_transfers <- st.Stats.c2c_transfers + 1;
      e.dirty <- -1;
      e.dirty_words <- 0;
      t.stats.(o).Stats.writebacks <- t.stats.(o).Stats.writebacks + 1;
      ignore (Lru_stack.access t.l3.(socket_of t o) line ());
      t.last_source <- C2C;
      t.arch.Archspec.Arch.coherence_latency
    end
    else begin
      let l3 = t.l3.(socket_of t core) in
      if Lru_stack.touch l3 line then begin
        st.Stats.l3_hits <- st.Stats.l3_hits + 1;
        t.last_source <- L3;
        t.arch.Archspec.Arch.l3.Archspec.Cache_geom.hit_latency
      end
      else begin
        st.Stats.mem_fetches <- st.Stats.mem_fetches + 1;
        ignore (Lru_stack.add l3 line ());
        t.last_source <- Memory;
        t.arch.Archspec.Arch.mem_latency
      end
    end
  in
  let p = e.pending.(core) in
  t.last_kind <-
    (if p <> 0 then
       if p land mask <> 0 then Coherence_true else Coherence_false
     else if remote_dirty_words >= 0 then
       (* stealing a dirty line: sharing miss even on the core's first
          access *)
       if remote_dirty_words land mask <> 0 then Coherence_true
       else Coherence_false
     else Capacity);
  fetch_latency

(* a private miss: record the holder, finish a write, charge the fetch *)
let fill t st ~core ~line ~mask ~write e fetch_latency =
  t.last_missed <- true;
  (match t.last_kind with
  | Cold -> st.Stats.cold_misses <- st.Stats.cold_misses + 1
  | Capacity -> st.Stats.capacity_misses <- st.Stats.capacity_misses + 1
  | Coherence_true -> st.Stats.coherence_true <- st.Stats.coherence_true + 1
  | Coherence_false ->
      st.Stats.coherence_false <- st.Stats.coherence_false + 1);
  e.pending.(core) <- 0;
  e.holders <- e.holders lor bit core;
  if write then finish_write t core line e mask;
  st.Stats.stall_cycles <- st.Stats.stall_cycles + fetch_latency;
  fetch_latency

(* One access fully inside one line: returns its latency and leaves its
   source and miss kind in [last_*].  The directory is probed at most
   once, and nothing is allocated except the directory entry of a line
   no core has touched before. *)
let access_line t ~core ~addr ~size ~write =
  let st = t.stats.(core) in
  if write then st.Stats.stores <- st.Stats.stores + 1
  else st.Stats.loads <- st.Stats.loads + 1;
  let line = addr / t.line_bytes in
  let mask = word_mask ~line_bytes:t.line_bytes ~addr ~size in
  let code = Private_cache.access_fast t.priv.(core) line in
  if code >= 0 then handle_eviction t core code;
  if code = Private_cache.hit_l1 then begin
    st.Stats.l1_hits <- st.Stats.l1_hits + 1;
    hit t st ~core ~line ~mask ~write ~source:L1
      ~base_latency:t.arch.Archspec.Arch.l1.Archspec.Cache_geom.hit_latency
  end
  else if code = Private_cache.hit_l2 then begin
    st.Stats.l2_hits <- st.Stats.l2_hits + 1;
    hit t st ~core ~line ~mask ~write ~source:L2
      ~base_latency:t.arch.Archspec.Arch.l2.Archspec.Cache_geom.hit_latency
  end
  else begin
    let s = Int_table.probe t.dir line in
    if Int_table.key_at t.dir s = line then begin
      let e = Int_table.value_at t.dir s in
      fill t st ~core ~line ~mask ~write e (refetch t st ~core ~line ~mask e)
    end
    else begin
      (* first touch by any core: cold miss from memory (no L3 can hold
         a line the directory has never seen) *)
      let e =
        { holders = 0; dirty = -1; dirty_words = 0;
          pending = Array.make t.cores 0 }
      in
      Int_table.add_at t.dir s line e;
      st.Stats.mem_fetches <- st.Stats.mem_fetches + 1;
      ignore (Lru_stack.add t.l3.(socket_of t core) line ());
      t.last_source <- Memory;
      t.last_kind <- Cold;
      fill t st ~core ~line ~mask ~write e t.arch.Archspec.Arch.mem_latency
    end
  end

(* An access that straddles line boundaries is split and the latencies
   summed.  The source and miss left in [last_*] are those of the first
   piece that missed, else of the first piece. *)
let rec access_pieces t ~core ~addr ~size ~write =
  let line_end = ((addr / t.line_bytes) + 1) * t.line_bytes in
  if size <= line_end - addr then access_line t ~core ~addr ~size ~write
  else begin
    let here = line_end - addr in
    let latency = access_line t ~core ~addr ~size:here ~write in
    let source = t.last_source and kind = t.last_kind
    and missed = t.last_missed in
    let rest = access_pieces t ~core ~addr:line_end ~size:(size - here) ~write in
    if missed || not t.last_missed then begin
      t.last_source <- source;
      t.last_kind <- kind;
      t.last_missed <- missed
    end;
    latency + rest
  end

let access_latency t ~core ~addr ~size ~write =
  if core < 0 || core >= t.cores then invalid_arg "Coherence.access: bad core";
  if size <= 0 then invalid_arg "Coherence.access: size <= 0";
  access_pieces t ~core ~addr ~size ~write

let access t ~core ~addr ~size ~write =
  let latency = access_latency t ~core ~addr ~size ~write in
  { latency; source = t.last_source;
    miss = (if t.last_missed then Some t.last_kind else None) }

let read t ~core ~addr ~size = access t ~core ~addr ~size ~write:false
let write t ~core ~addr ~size = access t ~core ~addr ~size ~write:true

let stats_of_core t core = t.stats.(core)
let aggregate_stats t = Stats.sum (Array.to_list t.stats)

let holders_of_line t line =
  match entry_of t line with
  | None -> []
  | Some e ->
      let rec go c acc =
        if c < 0 then acc
        else go (c - 1) (if e.holders land bit c <> 0 then c :: acc else acc)
      in
      go (t.cores - 1) []

let dirty_owner_of_line t line =
  match entry_of t line with
  | None -> None
  | Some e -> if e.dirty >= 0 then Some e.dirty else None
