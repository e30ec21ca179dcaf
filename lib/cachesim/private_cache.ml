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
