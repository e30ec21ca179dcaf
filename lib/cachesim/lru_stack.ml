(* A doubly-linked recency list over slot-indexed int arrays, indexed by
   an open-addressing int table (key -> slot): O(1) insert, move-to-top
   and bottom eviction, and no heap node per entry, so link writes are
   plain int stores.

   Slot 0 is a sentinel: [next.(0)] is the MRU slot, [prev.(0)] the LRU
   slot, and an empty stack links slot 0 to itself.  A removed entry's
   slot goes on a free list threaded through [next] and is handed out
   again before a fresh one; at capacity the evicted bottom slot is
   reused in place for the incoming key.  The arrays start small and
   double as the resident set grows, never past [capacity + 1] slots, so
   a stack with a large capacity (an L3) costs only what it holds.

   While every payload stored so far is physically the first one (always
   so for the simulator's [unit] stacks), [vals] is that one value and no
   per-slot payload array exists. *)

type 'a t = {
  cap : int;
  index : int Int_table.t;  (* key -> slot *)
  mutable keys : int array;
  mutable prev : int array;  (* toward the top (MRU) *)
  mutable next : int array;  (* toward the bottom (LRU); free-list link *)
  mutable vals : 'a array;
      (* [||] before the first insertion; [[|v|]] while [uniform] *)
  mutable uniform : bool;  (* every payload is [vals.(0)] *)
  mutable free : int;  (* head of the free-slot list; 0 = none *)
  mutable used : int;  (* slots handed out so far, sentinel included *)
}

let no_key = min_int
let initial_slots = 8

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru_stack.create: capacity < 1";
  let n = if capacity < initial_slots then capacity + 1 else initial_slots in
  {
    cap = capacity;
    index = Int_table.create ();
    keys = Array.make n no_key;
    prev = Array.make n 0;
    next = Array.make n 0;
    vals = [||];
    uniform = true;
    free = 0;
    used = 1;
  }

let capacity t = t.cap
let size t = Int_table.length t.index
let mem t key = Int_table.mem t.index key
let value_at t s = if t.uniform then t.vals.(0) else t.vals.(s)

(* payloads are mostly [unit] or a rarely-changing [bool]: skipping the
   physically-equal store avoids the write barrier *)
let set_at t s v =
  if t.uniform then begin
    let v0 = t.vals.(0) in
    if v != v0 then begin
      t.vals <- Array.make (Array.length t.keys) v0;
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

let unlink t n =
  let p = t.prev.(n) and q = t.next.(n) in
  t.next.(p) <- q;
  t.prev.(q) <- p

let push_top t n =
  let h = t.next.(0) in
  t.next.(n) <- h;
  t.prev.(n) <- 0;
  t.prev.(h) <- n;
  t.next.(0) <- n

let promote t key =
  let s = Int_table.find_slot t.index key in
  if s < 0 then -1
  else begin
    let n = Int_table.value_at t.index s in
    if t.next.(0) <> n then begin
      unlink t n;
      push_top t n
    end;
    n
  end

let lru_slot t = if t.next.(0) = 0 then -1 else t.prev.(0)

let grow t =
  let n = Array.length t.keys in
  (* double, or go straight to capacity + 1 once doubling would reach the
     capacity: a power-of-two stack then never copies its arrays for the
     last slot (written to avoid overflowing for a [max_int] stack) *)
  let n' = if n >= t.cap - n then t.cap + 1 else 2 * n in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys no_key;
  t.prev <- extend t.prev 0;
  t.next <- extend t.next 0;
  if not t.uniform then t.vals <- extend t.vals t.vals.(0)

let fresh_slot t =
  if t.free <> 0 then begin
    let n = t.free in
    t.free <- t.next.(n);
    n
  end
  else begin
    if t.used = Array.length t.keys then grow t;
    let n = t.used in
    t.used <- n + 1;
    n
  end

let add t key value =
  let s = Int_table.probe t.index key in
  if Int_table.key_at t.index s = key then
    invalid_arg "Lru_stack.add: key already present";
  if Array.length t.vals = 0 then t.vals <- [| value |];
  if Int_table.length t.index >= t.cap then begin
    (* at capacity: the bottom slot takes the incoming key.  The key is
       indexed before the victim is dropped so that [s] stays valid. *)
    let n = t.prev.(0) in
    let evicted = t.keys.(n) in
    Int_table.add_at t.index s key n;
    Int_table.remove_at t.index (Int_table.find_slot t.index evicted);
    t.keys.(n) <- key;
    set_at t n value;
    if t.next.(0) <> n then begin
      unlink t n;
      push_top t n
    end;
    evicted
  end
  else begin
    let n = fresh_slot t in
    Int_table.add_at t.index s key n;
    t.keys.(n) <- key;
    set_at t n value;
    push_top t n;
    no_key
  end

let touch t key = promote t key >= 0

let access_int t key value =
  let n = promote t key in
  if n >= 0 then begin
    set_at t n value;
    no_key
  end
  else add t key value

let access t key value =
  let n = promote t key in
  if n >= 0 then begin
    set_at t n value;
    None
  end
  else begin
    (* read the bottom payload before [add] reuses its slot *)
    let bottom_value =
      if size t >= t.cap then Some (value_at t (lru_slot t)) else None
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
  unlink t n;
  t.next.(n) <- t.free;
  t.free <- n;
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
    let rec go d n = if t.keys.(n) = key then Some d else go (d + 1) t.next.(n) in
    go 0 t.next.(0)

let to_alist t =
  let rec go acc n =
    if n = 0 then List.rev acc
    else go ((t.keys.(n), value_at t n) :: acc) t.next.(n)
  in
  go [] t.next.(0)

let clear t =
  Int_table.clear t.index;
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t.free <- 0;
  t.used <- 1
