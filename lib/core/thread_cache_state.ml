type t = bool Cachesim.Lru_stack.t

let create ~capacity : t = Cachesim.Lru_stack.create ~capacity

let holds (t : t) line = Cachesim.Lru_stack.mem t line

let holds_modified (t : t) line =
  Cachesim.Lru_stack.get t line ~default:false

(* One probe: a held line moves to the top and keeps its written state
   (only a write can set it); an absent one is added, and the entry it
   evicts from the bottom, read before [add] reuses its slot, is
   returned. *)
let insert (t : t) ~line ~written =
  let s = Cachesim.Lru_stack.promote t line in
  if s >= 0 then begin
    if written then Cachesim.Lru_stack.set_at t s true;
    None
  end
  else begin
    let bottom_written =
      Cachesim.Lru_stack.size t >= Cachesim.Lru_stack.capacity t
      && Cachesim.Lru_stack.value_at t (Cachesim.Lru_stack.lru_slot t)
    in
    let evicted = Cachesim.Lru_stack.add t line written in
    if evicted = Cachesim.Lru_stack.no_key then None
    else Some (evicted, bottom_written)
  end

let invalidate (t : t) line = Cachesim.Lru_stack.remove_key t line
let size (t : t) = Cachesim.Lru_stack.size t
let clear (t : t) = Cachesim.Lru_stack.clear t
