(* Which threads hold a line in written state, indexed by line.  Up to 62
   threads the per-line mask is a single immediate int (the historical fast
   path); beyond that it is a Cachesim.Bitset.  Either way the 1-to-All
   comparison is a constant-time popcount and the hot path allocates
   nothing (Small path) or only one bitset per distinct line (Big path).

   The masks are the only record of the "W" state: a thread's bit is set
   exactly while its stack holds the line and it has written the line
   since inserting it (an eviction or invalidation clears the bit), so the
   per-thread stacks carry no payload. *)

type masks =
  | Small of int Cachesim.Int_table.t  (* line -> bitmask of writer-holders *)
  | Big of Cachesim.Bitset.t Cachesim.Int_table.t

type t = {
  states : unit Cachesim.Lru_stack.t array;  (* per-thread LRU stacks *)
  masks : masks;
  (* per-thread line -> index of the reference whose write last put the
     line in written state there; only consulted for threads whose mask
     bit is set, so stale entries after eviction are harmless (a set
     mask bit implies a later written insert refreshed the entry) *)
  wref : int Cachesim.Int_table.t array;
}

let small_limit = 62

let create ~threads ~capacity =
  if threads < 1 then invalid_arg "Fs_counter.create: threads < 1";
  {
    states =
      Array.init threads (fun _ -> Cachesim.Lru_stack.create ~capacity);
    masks =
      (if threads <= small_limit then Small (Cachesim.Int_table.create ())
       else Big (Cachesim.Int_table.create ()));
    wref = Array.init threads (fun _ -> Cachesim.Int_table.create ~initial:64 ());
  }

let clear_bit t line tid =
  match t.masks with
  | Small tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      if s >= 0 then begin
        let m = Cachesim.Int_table.value_at tbl s land lnot (1 lsl tid) in
        if m = 0 then Cachesim.Int_table.remove_at tbl s
        else Cachesim.Int_table.set_at tbl s m
      end
  | Big tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      if s >= 0 then Cachesim.Bitset.unset (Cachesim.Int_table.value_at tbl s) tid

let process t ~me ~line ~written =
  (* one probe of [me]'s stack; the line it evicts leaves [me]'s masks
     before the mask table is probed for [line], as that removal may
     move table entries *)
  let evicted = Cachesim.Lru_stack.access_int t.states.(me) line () in
  if evicted <> Cachesim.Lru_stack.no_key then clear_bit t evicted me;
  match t.masks with
  | Small tbl ->
      let s = Cachesim.Int_table.probe tbl line in
      let held = Cachesim.Int_table.key_at tbl s = line in
      let mask = if held then Cachesim.Int_table.value_at tbl s else 0 in
      let me_bit = 1 lsl me in
      if written && mask land me_bit = 0 then
        if held then Cachesim.Int_table.set_at tbl s (mask lor me_bit)
        else Cachesim.Int_table.add_at tbl s line me_bit;
      Cachesim.Bitset.popcount (mask land lnot me_bit)
  | Big tbl ->
      let s = Cachesim.Int_table.probe tbl line in
      let held = Cachesim.Int_table.key_at tbl s = line in
      let fs =
        if held then
          Cachesim.Bitset.count_excluding (Cachesim.Int_table.value_at tbl s)
            me
        else 0
      in
      if written then
        if held then Cachesim.Bitset.set (Cachesim.Int_table.value_at tbl s) me
        else begin
          let bs = Cachesim.Bitset.create ~bits:(Array.length t.states) in
          Cachesim.Bitset.set bs me;
          Cachesim.Int_table.add_at tbl s line bs
        end;
      fs

let record_case t sink ~step ~line ~me ~ref_id j =
  Attrib.record sink ~step ~line ~writer_tid:j
    ~writer_ref:(Cachesim.Int_table.get t.wref.(j) line ~default:(-1))
    ~victim_tid:me ~victim_ref:ref_id

(* [process] plus provenance: each other thread holding [line] in
   written state yields one FS case recorded into [sink] as (that
   thread, its last writing reference) -> (me, ref_id), in thread order.
   [process] only adds [me] to the writers, so they can be read back
   after it; the extra work is paid only on accesses with FS cases. *)
let process_attr t ~me ~line ~written ~ref_id ~step sink =
  let fs = process t ~me ~line ~written in
  if fs > 0 then begin
    match t.masks with
    | Small tbl ->
        let others =
          Cachesim.Int_table.get tbl line ~default:0 land lnot (1 lsl me)
        in
        for j = 0 to Array.length t.states - 1 do
          if others land (1 lsl j) <> 0 then
            record_case t sink ~step ~line ~me ~ref_id j
        done
    | Big tbl ->
        let bs =
          Cachesim.Int_table.value_at tbl (Cachesim.Int_table.find_slot tbl line)
        in
        for j = 0 to Array.length t.states - 1 do
          if j <> me && Cachesim.Bitset.mem bs j then
            record_case t sink ~step ~line ~me ~ref_id j
        done
  end;
  if written then Cachesim.Int_table.set t.wref.(me) line ref_id;
  fs

let invalidate_others t ~me ~line =
  Array.iteri
    (fun j s ->
      if j <> me then
        if Cachesim.Lru_stack.remove_key s line then clear_bit t line j)
    t.states

let holds t ~tid line = Cachesim.Lru_stack.mem t.states.(tid) line
let threads t = Array.length t.states
