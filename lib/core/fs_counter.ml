(* Per-thread recency lists, found by line through pages.

   Each thread keeps a Cachesim.Slot_list keyed by line.  Lines are
   grouped in pages of 1,024 lines (page number [line asr page_shift],
   offset [line land off_mask], so negative lines work).  A page holds,
   for each line, [words] writer-mask words and, for each (line, thread)
   at [off * threads + tid], that thread's list slot (0 = not held) and,
   in attributed runs, its last writing reference.  A table indexed by
   page number, over a bounded window of page numbers, finds the page, so
   finding a line's state is two array loads and no hash probe; only a
   page beyond the window (gigabytes of address away) is found through a
   hash table instead.

   The masks are the only record of the "W" state: a thread's bit is set
   exactly while its list holds the line and it has written the line
   since inserting it (an eviction or invalidation clears the bit).

   A page is taken on the first insertion of one of its lines and goes
   back to the pool when its last (line, thread) entry is dropped; by then
   its slots and masks are all zero again, so a pooled page is reused as
   is.  Its writer refs are stale but never read: a reference is read
   only for a thread whose mask bit is set, which a later written access
   refreshed. *)

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

type page = {
  mutable live : int;  (* (line, thread) entries held *)
  slots : Bytes.t;  (* per (line, thread): 2- or 4-byte list slot *)
  masks : int array;  (* per (line, word): writer bits *)
  mutable wrefs : Bytes.t;
      (* per (line, thread): 4-byte last writing reference + 1; empty
         until the page first serves [process_attr] *)
}

(* the table's entry for a page no thread holds a line of *)
let absent =
  { live = 0; slots = Bytes.empty; masks = [||]; wrefs = Bytes.empty }

type t = {
  threads : int;
  words : int;  (* mask words per line *)
  wide : bool;  (* 4-byte slots: the capacity exceeds 16 bits *)
  lists : Cachesim.Slot_list.t array;  (* per thread; keys are lines *)
  mutable base : int;  (* page number of [table.(0)] *)
  mutable table : page array;  (* the window over page numbers *)
  far : page Cachesim.Int_table.t;  (* pages in use outside the window *)
  mutable pool : page array;  (* released pages, [pooled] of them *)
  mutable pooled : int;
}

let bits_per_word = 62

(* Pages sized to the team (128 lines at 48 threads) would pin less
   memory for sparse lines, but they raised the peak RSS of the
   paper-table runs (up to 48 threads) by 6.5%. *)
let page_shift = 10
let page_lines = 1 lsl page_shift
let off_mask = page_lines - 1

(* The window grows by doubling up to this many page numbers: a 512 KiB
   table over 2^26 lines, 4 GiB of address.  A page beyond it, which only
   a subscript reaching gigabytes past its array touches, is found
   through [far] instead, so the table stays bounded however far apart
   the lines are. *)
let window_cap = 1 lsl 16

let create ~threads ~capacity =
  if threads < 1 then invalid_arg "Fs_counter.create: threads < 1";
  if capacity < 1 then invalid_arg "Fs_counter.create: capacity < 1";
  {
    threads;
    words = (threads + bits_per_word - 1) / bits_per_word;
    wide = capacity > 0xFFFF;
    lists =
      Array.init threads (fun _ -> Cachesim.Slot_list.create ~capacity);
    base = 0;
    table = [||];
    far = Cachesim.Int_table.create ();
    pool = [||];
    pooled = 0;
  }

let threads t = t.threads

let[@inline] slot t p e =
  if t.wide then Int32.to_int (get32 p.slots (e lsl 2)) land 0xFFFF_FFFF
  else get16 p.slots (e lsl 1)

let[@inline] set_slot t p e n =
  if t.wide then set32 p.slots (e lsl 2) (Int32.of_int n)
  else set16 p.slots (e lsl 1) n

(* the page of [line], or [absent] *)
let[@inline] find t line =
  let pn = line asr page_shift in
  let i = pn - t.base in
  if i >= 0 && i < Array.length t.table then Array.unsafe_get t.table i
  else Cachesim.Int_table.get t.far pn ~default:absent

(* index of page number [pn] in the window, widened by doubling (the room
   goes on the side [pn] lies) up to [window_cap] page numbers; -1 when
   the window cannot cover it.  Windows only grow, so a page once put in
   [far] never falls inside a later window. *)
let cover t pn =
  let len = Array.length t.table in
  if len = 0 then begin
    t.table <- Array.make 8 absent;
    t.base <- pn;
    0
  end
  else begin
    let lo = min t.base pn and hi = max (t.base + len - 1) pn in
    if hi - lo + 1 > window_cap then -1
    else begin
      let len' = min window_cap (max (hi - lo + 1) (2 * len)) in
      let base = if pn < t.base then hi - len' + 1 else lo in
      let table = Array.make len' absent in
      Array.blit t.table 0 table (t.base - base) len;
      t.table <- table;
      t.base <- base;
      pn - base
    end
  end

let fresh t =
  if t.pooled > 0 then begin
    t.pooled <- t.pooled - 1;
    t.pool.(t.pooled)
  end
  else
    {
      live = 0;
      slots =
        Bytes.make (page_lines * t.threads * if t.wide then 4 else 2) '\000';
      masks = Array.make (page_lines * t.words) 0;
      wrefs = Bytes.empty;
    }

let take t i =
  let p = fresh t in
  t.table.(i) <- p;
  p

(* page number [pn] outside the window: the window widens to it, or the
   page is found or put in [far] *)
let outside t pn =
  let i = cover t pn in
  if i >= 0 then take t i
  else begin
    let p = Cachesim.Int_table.get t.far pn ~default:absent in
    if p != absent then p
    else begin
      let p = fresh t in
      Cachesim.Int_table.set t.far pn p;
      p
    end
  end

(* the page of [line], taken from the pool when absent *)
let[@inline] page_for t line =
  let pn = line asr page_shift in
  let i = pn - t.base in
  if i >= 0 && i < Array.length t.table then begin
    let p = Array.unsafe_get t.table i in
    if p != absent then p else take t i
  end
  else outside t pn

let release t line p =
  let pn = line asr page_shift in
  let i = pn - t.base in
  if i >= 0 && i < Array.length t.table then t.table.(i) <- absent
  else ignore (Cachesim.Int_table.remove t.far pn);
  if t.pooled = Array.length t.pool then begin
    let pool = Array.make (max 8 (2 * t.pooled)) absent in
    Array.blit t.pool 0 pool 0 t.pooled;
    t.pool <- pool
  end;
  t.pool.(t.pooled) <- p;
  t.pooled <- t.pooled + 1

(* forget (line, tid): its slot, its writer bit and its share of the
   page's live count *)
let drop t p ~off ~line tid =
  set_slot t p ((off * t.threads) + tid) 0;
  let i = (off * t.words) + (tid / bits_per_word) in
  p.masks.(i) <- p.masks.(i) land lnot (1 lsl (tid mod bits_per_word));
  p.live <- p.live - 1;
  if p.live = 0 then release t line p

(* thread [me] touches [line] on page [p]: one slot load, then a
   move-to-top on a hit or an insertion whose evicted line is dropped by
   index; then the writer bits are counted and [me]'s is marked *)
let access t p ~off ~me ~line ~written =
  (* the checked load also bounds [me], and so every slot index below *)
  let lst = t.lists.(me) in
  let e = (off * t.threads) + me in
  let n = slot t p e in
  if n <> 0 then Cachesim.Slot_list.move_to_top lst n
  else begin
    set_slot t p e (Cachesim.Slot_list.insert lst line);
    p.live <- p.live + 1;
    let v = Cachesim.Slot_list.evicted lst in
    if v <> Cachesim.Slot_list.no_key then
      drop t (find t v) ~off:(v land off_mask) ~line:v me
  end;
  let w0 = off * t.words in
  let i = w0 + (me / bits_per_word) in
  let bit = 1 lsl (me mod bits_per_word) in
  let m = p.masks.(i) in
  let fs = Cachesim.Bitset.popcount (m land lnot bit) in
  let fs =
    if t.words = 1 then fs
    else begin
      let fs = ref fs in
      for k = w0 to w0 + t.words - 1 do
        if k <> i then fs := !fs + Cachesim.Bitset.popcount p.masks.(k)
      done;
      !fs
    end
  in
  if written then p.masks.(i) <- m lor bit;
  fs

let process t ~me ~line ~written =
  access t (page_for t line) ~off:(line land off_mask) ~me ~line ~written

let[@inline] wref p e = Int32.to_int (get32 p.wrefs (e lsl 2)) - 1

(* [access] plus provenance: each other thread holding [line] in written
   state yields one FS case recorded into [sink] as (that thread, its last
   writing reference) -> (me, ref_id), in thread order.  [access] only
   adds [me] to the writers, so they can be read back after it; the extra
   work is paid only on accesses with FS cases. *)
let process_attr t ~me ~line ~written ~ref_id ~step sink =
  let p = page_for t line and off = line land off_mask in
  let fs = access t p ~off ~me ~line ~written in
  if Bytes.length p.wrefs = 0 then
    p.wrefs <- Bytes.make (4 * page_lines * t.threads) '\000';
  let e0 = off * t.threads in
  if fs > 0 then begin
    let w0 = off * t.words in
    for j = 0 to t.threads - 1 do
      if
        j <> me
        && p.masks.(w0 + (j / bits_per_word)) land (1 lsl (j mod bits_per_word))
           <> 0
      then
        Attrib.record sink ~step ~line ~writer_tid:j
          ~writer_ref:(wref p (e0 + j)) ~victim_tid:me ~victim_ref:ref_id
    done
  end;
  if written then set32 p.wrefs ((e0 + me) lsl 2) (Int32.of_int (ref_id + 1));
  fs

let invalidate_others t ~me ~line =
  let p = find t line in
  if p != absent then begin
    let off = line land off_mask in
    for j = 0 to t.threads - 1 do
      if j <> me && p.live > 0 then begin
        let n = slot t p ((off * t.threads) + j) in
        if n <> 0 then begin
          Cachesim.Slot_list.remove t.lists.(j) n;
          drop t p ~off ~line j
        end
      end
    done
  end

let holds t ~tid line =
  if tid < 0 || tid >= t.threads then invalid_arg "Fs_counter.holds: tid";
  let p = find t line in
  p != absent && slot t p (((line land off_mask) * t.threads) + tid) <> 0
