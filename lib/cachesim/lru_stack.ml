(* A {!Slot_list} recency list indexed by an open-addressing int table
   (key -> slot): one probe finds an entry, and the list does the O(1)
   insert, move-to-top and bottom eviction.

   While every payload stored so far is physically the first one (always
   so for the simulator's [unit] stacks), [vals] is that one value and no
   per-slot payload array exists. *)

type 'a t = {
  list : Slot_list.t;
  index : int Int_table.t;  (* key -> slot *)
  mutable vals : 'a array;
      (* [||] before the first insertion; [[|v|]] while [uniform] *)
  mutable uniform : bool;  (* every payload is [vals.(0)] *)
}

let no_key = Slot_list.no_key

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru_stack.create: capacity < 1";
  {
    list = Slot_list.create ~capacity;
    index = Int_table.create ();
    vals = [||];
    uniform = true;
  }

let capacity t = Slot_list.capacity t.list
let size t = Slot_list.size t.list
let mem t key = Int_table.mem t.index key
let value_at t s = if t.uniform then t.vals.(0) else t.vals.(s)

(* payloads are mostly [unit] or a rarely-changing [bool]: skipping the
   physically-equal store avoids the write barrier *)
let set_at t s v =
  if t.uniform then begin
    let v0 = t.vals.(0) in
    if v != v0 then begin
      t.vals <- Array.make (Slot_list.slots t.list) v0;
      t.uniform <- false;
      t.vals.(s) <- v
    end
  end
  else if t.vals.(s) != v then t.vals.(s) <- v

let find t key =
  let s = Int_table.find_slot t.index key in
  if s < 0 then None else Some (value_at t (Int_table.value_at t.index s))

let get t key ~default =
  let s = Int_table.find_slot t.index key in
  if s < 0 then default else value_at t (Int_table.value_at t.index s)

let promote t key =
  let s = Int_table.find_slot t.index key in
  if s < 0 then -1
  else begin
    let n = Int_table.value_at t.index s in
    Slot_list.move_to_top t.list n;
    n
  end

let lru_slot t = Slot_list.lru t.list

let add t key value =
  let s = Int_table.probe t.index key in
  if Int_table.key_at t.index s = key then
    invalid_arg "Lru_stack.add: key already present";
  if Array.length t.vals = 0 then t.vals <- [| value |];
  let n = Slot_list.insert t.list key in
  (* the key is indexed before a victim is dropped so that [s] stays
     valid *)
  Int_table.add_at t.index s key n;
  let evicted = Slot_list.evicted t.list in
  if evicted <> no_key then
    Int_table.remove_at t.index (Int_table.find_slot t.index evicted)
  else if (not t.uniform) && Array.length t.vals < Slot_list.slots t.list
  then begin
    let b = Array.make (Slot_list.slots t.list) t.vals.(0) in
    Array.blit t.vals 0 b 0 (Array.length t.vals);
    t.vals <- b
  end;
  set_at t n value;
  evicted

let touch t key = promote t key >= 0

let access t key value =
  let n = promote t key in
  if n >= 0 then begin
    set_at t n value;
    None
  end
  else begin
    (* read the bottom payload before [add] reuses its slot *)
    let bottom_value =
      if size t >= capacity t then Some (value_at t (lru_slot t)) else None
    in
    let evicted = add t key value in
    match bottom_value with
    | Some v when evicted <> no_key -> Some (evicted, v)
    | _ -> None
  end

let update t key f =
  let s = Int_table.find_slot t.index key in
  if s < 0 then false
  else begin
    let n = Int_table.value_at t.index s in
    set_at t n (f (value_at t n));
    true
  end

(* unlink the entry in index slot [s] and put its slot on the free list *)
let drop t s =
  let n = Int_table.value_at t.index s in
  Int_table.remove_at t.index s;
  Slot_list.remove t.list n;
  n

let remove_key t key =
  let s = Int_table.find_slot t.index key in
  if s < 0 then false
  else begin
    ignore (drop t s);
    true
  end

let remove t key =
  let s = Int_table.find_slot t.index key in
  if s < 0 then None else Some (value_at t (drop t s))

let distance t key =
  if not (mem t key) then None
  else
    let rec go d n =
      if Slot_list.key_at t.list n = key then Some d
      else go (d + 1) (Slot_list.next t.list n)
    in
    go 0 (Slot_list.top t.list)

let to_alist t =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      go ((Slot_list.key_at t.list n, value_at t n) :: acc)
        (Slot_list.next t.list n)
  in
  go [] (Slot_list.top t.list)

let clear t =
  Int_table.clear t.index;
  Slot_list.clear t.list
