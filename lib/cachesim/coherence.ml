type source = L1 | L2 | L3 | C2C | Memory
type miss_kind = Cold | Capacity | Coherence_true | Coherence_false

type result = { latency : int; source : source; miss : miss_kind option }

(* All state is indexed by line number, so an access finds everything with
   array loads and no hash probe.

   Per (line, core), at [line * cores + core], one word packs the core's
   view of the line: the mask of 4-byte words written remotely since the
   core lost its copy to an invalidation (low [l1_shift] bits; 0 when it
   was never invalidated), then its slot in the core's L1 recency list,
   then its slot in the core's L2 list (slot 0 = not cached there).  Per
   (line, socket), at [line * sockets + socket], [l3_slot] is the line's
   slot in that socket's L3 list.  The directory is three per-line
   arrays. *)
type t = {
  arch : Archspec.Arch.t;
  cores : int;
  lines : int;
  sockets : int;
  socket_of : int array;  (* per core *)
  line_shift : int;  (* log2 of the line size *)
  offset_mask : int;  (* line size - 1 *)
  l1_shift : int;
  l2_shift : int;
  pending_mask : int;
  l1_mask : int;  (* an L1 slot, after [lsr l1_shift] *)
  l2_mask : int;  (* an L2 slot, after [lsr l2_shift] *)
  priv : int array;  (* per (line, core) *)
  l1 : Slot_list.t array;  (* per core; keys are lines *)
  l2 : Slot_list.t array;  (* per core *)
  l3 : Slot_list.t array;  (* per socket *)
  l3_slot : int array;  (* per (line, socket) *)
  holders : int array;  (* per line: bit mask over cores *)
  dirty : int array;
      (* per line: the core owning a Modified copy; [-1] = none, [untouched]
         before any core has touched the line *)
  dirty_words : int array;
      (* per line: words written by the current dirty owner since it
         acquired the line in Modified state; used to classify
         first-access misses that steal a dirty line (an RFO on a
         falsely-shared line is a false-sharing miss even if the requester
         never held the line) *)
  stats : Stats.t array;
  (* where the last [access_line] found its data and how it missed;
     immediate fields, so recording them costs no write barrier *)
  mutable last_source : source;
  mutable last_kind : miss_kind;
  mutable last_missed : bool;
}

let word_bytes = 4
let max_cores = Sys.int_size
let untouched = -2

(* number of bits that hold the values 0 .. n *)
let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1)

let create ?cores ~lines (arch : Archspec.Arch.t) =
  let cores = match cores with Some c -> c | None -> arch.Archspec.Arch.cores in
  if cores < 1 then invalid_arg "Coherence.create: cores < 1";
  if cores > max_cores then
    invalid_arg
      (Printf.sprintf
         "Coherence.create: %d cores, but a line's holder mask has room for \
          at most %d"
         cores max_cores);
  if lines < 0 then invalid_arg "Coherence.create: lines < 0";
  let line_bytes = Archspec.Arch.line_bytes arch in
  let l1_lines = Archspec.Cache_geom.lines arch.Archspec.Arch.l1
  and l2_lines = Archspec.Cache_geom.lines arch.Archspec.Arch.l2 in
  let l1_shift = (line_bytes + word_bytes - 1) / word_bytes in
  let l2_shift = l1_shift + bits l1_lines in
  if l2_shift + bits l2_lines > 62 then
    invalid_arg
      "Coherence.create: the pending-word mask and the L1 and L2 slots of \
       this geometry do not fit in 62 bits";
  let cps = arch.Archspec.Arch.cores_per_socket in
  let sockets = (cores + cps - 1) / cps in
  {
    arch;
    cores;
    lines;
    sockets;
    socket_of = Array.init cores (fun c -> c / cps);
    line_shift = bits line_bytes - 1;
    offset_mask = line_bytes - 1;
    l1_shift;
    l2_shift;
    pending_mask = (1 lsl l1_shift) - 1;
    l1_mask = (1 lsl bits l1_lines) - 1;
    l2_mask = (1 lsl bits l2_lines) - 1;
    priv = Array.make (lines * cores) 0;
    l1 = Array.init cores (fun _ -> Slot_list.create ~capacity:l1_lines);
    l2 = Array.init cores (fun _ -> Slot_list.create ~capacity:l2_lines);
    l3 =
      Array.init sockets (fun _ ->
          Slot_list.create
            ~capacity:(Archspec.Cache_geom.lines arch.Archspec.Arch.l3));
    l3_slot = Array.make (lines * sockets) 0;
    holders = Array.make lines 0;
    dirty = Array.make lines untouched;
    dirty_words = Array.make lines 0;
    stats = Array.init cores (fun _ -> Stats.create ());
    last_source = L1;
    last_kind = Cold;
    last_missed = false;
  }

(* the words of a line that [size] bytes at offset [off] touch
   ([lsr 2] divides by [word_bytes]) *)
let words_touched ~off ~size =
  let first = off lsr 2 in
  let last = (off + size - 1) lsr 2 in
  ((1 lsl (last - first + 1)) - 1) lsl first

let word_mask ~line_bytes ~addr ~size =
  words_touched ~off:(addr mod line_bytes) ~size

(* put [line] on top of a socket's L3, evicting its LRU line when full *)
let l3_insert t socket line =
  let l3 = t.l3.(socket) in
  let n = Slot_list.insert l3 line in
  let victim = Slot_list.evicted l3 in
  if victim <> Slot_list.no_key then
    t.l3_slot.((victim * t.sockets) + socket) <- 0;
  t.l3_slot.((line * t.sockets) + socket) <- n

let l3_access t socket line =
  let n = t.l3_slot.((line * t.sockets) + socket) in
  if n <> 0 then Slot_list.move_to_top t.l3.(socket) n
  else l3_insert t socket line

(* put [line] on top of a core's L1 and return its slot; an L1 victim
   stays in the L2 (inclusion), so only its L1 slot is cleared *)
let l1_insert t core line =
  let l1 = t.l1.(core) in
  let n = Slot_list.insert l1 line in
  let victim = Slot_list.evicted l1 in
  if victim <> Slot_list.no_key then begin
    let j = (victim * t.cores) + core in
    t.priv.(j) <- t.priv.(j) land lnot (t.l1_mask lsl t.l1_shift)
  end;
  n

(* A core's L2 dropped a line (capacity eviction): back-invalidate it from
   the L1, and the directory forgets the core; a dirty copy is written
   back.  The core's word for the line becomes 0: a voluntary eviction
   means the next miss is a capacity miss, not a coherence miss. *)
let evict t core victim =
  let j = (victim * t.cores) + core in
  let s1 = (t.priv.(j) lsr t.l1_shift) land t.l1_mask in
  if s1 <> 0 then Slot_list.remove t.l1.(core) s1;
  t.priv.(j) <- 0;
  t.holders.(victim) <- t.holders.(victim) land lnot (1 lsl core);
  if t.dirty.(victim) = core then begin
    t.dirty.(victim) <- -1;
    t.dirty_words.(victim) <- 0;
    t.stats.(core).Stats.writebacks <- t.stats.(core).Stats.writebacks + 1;
    (* the written-back line lands in the evictor's socket L3 *)
    l3_access t t.socket_of.(core) victim
  end

(* Invalidate the cores in [others] (set bits, lowest first): drop their
   private copies of [line] and record the written words in their pending
   masks for later true/false-sharing classification. *)
let rec invalidate t st line others mask =
  if others <> 0 then begin
    let b = others land (-others) in
    let o = Bitset.popcount (b - 1) in
    let j = (line * t.cores) + o in
    let w = t.priv.(j) in
    let s1 = (w lsr t.l1_shift) land t.l1_mask in
    if s1 <> 0 then Slot_list.remove t.l1.(o) s1;
    let s2 = (w lsr t.l2_shift) land t.l2_mask in
    if s2 <> 0 then Slot_list.remove t.l2.(o) s2;
    t.priv.(j) <- (w land t.pending_mask) lor mask;
    st.Stats.invalidations_sent <- st.Stats.invalidations_sent + 1;
    let so = t.stats.(o) in
    so.Stats.invalidations_received <- so.Stats.invalidations_received + 1;
    invalidate t st line (others lxor b) mask
  end

(* write-invalidate: drop all other copies, become Modified *)
let finish_write t st core line mask =
  let others = t.holders.(line) land lnot (1 lsl core) in
  if others <> 0 then begin
    invalidate t st line others mask;
    t.holders.(line) <- t.holders.(line) lxor others
  end;
  if t.dirty.(line) = core then
    t.dirty_words.(line) <- t.dirty_words.(line) lor mask
  else t.dirty_words.(line) <- mask;
  t.dirty.(line) <- core

let upgrade_latency t = (t.arch.Archspec.Arch.coherence_latency + 1) / 2

(* a private hit; only a write consults the directory *)
let hit t st ~core ~line ~mask ~write ~source ~base_latency =
  t.last_source <- source;
  t.last_missed <- false;
  let latency =
    if not write then
      (* read hit: no coherence state can change *)
      base_latency
    else begin
      let latency =
        if t.dirty.(line) <> core
           && t.holders.(line) land lnot (1 lsl core) <> 0
        then begin
          (* write hit on a Shared line: upgrade *)
          st.Stats.upgrades <- st.Stats.upgrades + 1;
          base_latency + upgrade_latency t
        end
        else base_latency
      in
      finish_write t st core line mask;
      latency
    end
  in
  st.Stats.stall_cycles <- st.Stats.stall_cycles + latency;
  latency

(* a private miss on a line some core touched before: fetch it from a
   remote dirty copy, the socket L3 or memory, and classify the miss from
   the core's [pending] words *)
let refetch t st ~core ~line ~mask ~pending =
  let d = t.dirty.(line) in
  (* words dirtied by a remote Modified copy, captured before the fetch
     downgrades it; -1 = no remote dirty owner *)
  let remote_dirty_words = if d >= 0 && d <> core then t.dirty_words.(line) else -1 in
  let fetch_latency =
    if d >= 0 && d <> core then begin
      (* remote dirty copy: cache-to-cache transfer; the owner keeps a
         Shared copy on a read, loses it on a write (finish_write) *)
      st.Stats.c2c_transfers <- st.Stats.c2c_transfers + 1;
      t.dirty.(line) <- -1;
      t.dirty_words.(line) <- 0;
      t.stats.(d).Stats.writebacks <- t.stats.(d).Stats.writebacks + 1;
      l3_access t t.socket_of.(d) line;
      t.last_source <- C2C;
      t.arch.Archspec.Arch.coherence_latency
    end
    else begin
      let socket = t.socket_of.(core) in
      let n = t.l3_slot.((line * t.sockets) + socket) in
      if n <> 0 then begin
        Slot_list.move_to_top t.l3.(socket) n;
        st.Stats.l3_hits <- st.Stats.l3_hits + 1;
        t.last_source <- L3;
        t.arch.Archspec.Arch.l3.Archspec.Cache_geom.hit_latency
      end
      else begin
        st.Stats.mem_fetches <- st.Stats.mem_fetches + 1;
        l3_insert t socket line;
        t.last_source <- Memory;
        t.arch.Archspec.Arch.mem_latency
      end
    end
  in
  t.last_kind <-
    (if pending <> 0 then
       if pending land mask <> 0 then Coherence_true else Coherence_false
     else if remote_dirty_words >= 0 then
       (* stealing a dirty line: sharing miss even on the core's first
          access *)
       if remote_dirty_words land mask <> 0 then Coherence_true
       else Coherence_false
     else Capacity);
  fetch_latency

(* a private miss: record the holder, finish a write, charge the fetch *)
let fill t st ~core ~line ~mask ~write fetch_latency =
  t.last_missed <- true;
  (match t.last_kind with
  | Cold -> st.Stats.cold_misses <- st.Stats.cold_misses + 1
  | Capacity -> st.Stats.capacity_misses <- st.Stats.capacity_misses + 1
  | Coherence_true -> st.Stats.coherence_true <- st.Stats.coherence_true + 1
  | Coherence_false ->
      st.Stats.coherence_false <- st.Stats.coherence_false + 1);
  t.holders.(line) <- t.holders.(line) lor (1 lsl core);
  if write then finish_write t st core line mask;
  st.Stats.stall_cycles <- st.Stats.stall_cycles + fetch_latency;
  fetch_latency

(* One access fully inside one line: returns its latency and leaves its
   source and miss kind in [last_*]. *)
let access_line t ~core ~addr ~size ~write =
  let st = t.stats.(core) in
  if write then st.Stats.stores <- st.Stats.stores + 1
  else st.Stats.loads <- st.Stats.loads + 1;
  let line = addr lsr t.line_shift in
  let mask = words_touched ~off:(addr land t.offset_mask) ~size in
  let i = (line * t.cores) + core in
  let w = t.priv.(i) in
  let s1 = (w lsr t.l1_shift) land t.l1_mask in
  if s1 <> 0 then begin
    Slot_list.move_to_top t.l1.(core) s1;
    st.Stats.l1_hits <- st.Stats.l1_hits + 1;
    hit t st ~core ~line ~mask ~write ~source:L1
      ~base_latency:t.arch.Archspec.Arch.l1.Archspec.Cache_geom.hit_latency
  end
  else begin
    let s2 = (w lsr t.l2_shift) land t.l2_mask in
    if s2 <> 0 then begin
      (* promote in the L2, fill the L1 *)
      Slot_list.move_to_top t.l2.(core) s2;
      let n1 = l1_insert t core line in
      t.priv.(i) <- w lor (n1 lsl t.l1_shift);
      st.Stats.l2_hits <- st.Stats.l2_hits + 1;
      hit t st ~core ~line ~mask ~write ~source:L2
        ~base_latency:t.arch.Archspec.Arch.l2.Archspec.Cache_geom.hit_latency
    end
    else begin
      (* fill both levels, which clears the pending words; an L2 victim is
         back-invalidated from the L1 (inclusion) and leaves the core *)
      let n1 = l1_insert t core line in
      let l2 = t.l2.(core) in
      let n2 = Slot_list.insert l2 line in
      t.priv.(i) <- (n1 lsl t.l1_shift) lor (n2 lsl t.l2_shift);
      let victim = Slot_list.evicted l2 in
      if victim <> Slot_list.no_key then evict t core victim;
      if t.dirty.(line) <> untouched then
        fill t st ~core ~line ~mask ~write
          (refetch t st ~core ~line ~mask ~pending:(w land t.pending_mask))
      else begin
        (* first touch by any core: cold miss from memory (no L3 can hold
           a line no core has touched) *)
        t.dirty.(line) <- -1;
        st.Stats.mem_fetches <- st.Stats.mem_fetches + 1;
        l3_insert t t.socket_of.(core) line;
        t.last_source <- Memory;
        t.last_kind <- Cold;
        fill t st ~core ~line ~mask ~write t.arch.Archspec.Arch.mem_latency
      end
    end
  end

(* An access that straddles line boundaries is split and the latencies
   summed.  The source and miss left in [last_*] are those of the first
   piece that missed, else of the first piece. *)
let rec access_pieces t ~core ~addr ~size ~write =
  let line_end = ((addr lsr t.line_shift) + 1) lsl t.line_shift in
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
  if addr < 0 || addr > (t.lines lsl t.line_shift) - size then
    invalid_arg "Coherence.access: address outside the simulated memory";
  access_pieces t ~core ~addr ~size ~write

let access t ~core ~addr ~size ~write =
  let latency = access_latency t ~core ~addr ~size ~write in
  { latency; source = t.last_source;
    miss = (if t.last_missed then Some t.last_kind else None) }

let read t ~core ~addr ~size = access t ~core ~addr ~size ~write:false
let write t ~core ~addr ~size = access t ~core ~addr ~size ~write:true

let stats_of_core t core = t.stats.(core)
let aggregate_stats t = Stats.sum (Array.to_list t.stats)

let in_range t line = line >= 0 && line < t.lines

let holders_of_line t line =
  if not (in_range t line) then []
  else
    List.filter
      (fun c -> t.holders.(line) land (1 lsl c) <> 0)
      (List.init t.cores Fun.id)

let dirty_owner_of_line t line =
  if in_range t line && t.dirty.(line) >= 0 then Some t.dirty.(line) else None
