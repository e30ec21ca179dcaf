(* Slot 0 is a sentinel: [next.(0)] is the MRU slot, [prev.(0)] the LRU
   slot, and an empty list links slot 0 to itself.  A removed entry's slot
   goes on a free list threaded through [next] and is handed out again
   before a fresh one; at capacity the evicted bottom slot is reused in
   place for the incoming key.  The arrays start small and double as the
   resident set grows, never past [capacity + 1] slots. *)

type t = {
  cap : int;
  mutable keys : int array;
  mutable prev : int array;  (* toward the top (MRU) *)
  mutable next : int array;  (* toward the bottom (LRU); free-list link *)
  mutable free : int;  (* head of the free-slot list; 0 = none *)
  mutable used : int;  (* slots handed out so far, sentinel included *)
  mutable size : int;
  mutable evicted : int;  (* key displaced by the last [insert] *)
}

let no_key = min_int
let initial_slots = 8

let create ~capacity =
  if capacity < 1 then invalid_arg "Slot_list.create: capacity < 1";
  let n = if capacity < initial_slots then capacity + 1 else initial_slots in
  {
    cap = capacity;
    keys = Array.make n no_key;
    prev = Array.make n 0;
    next = Array.make n 0;
    free = 0;
    used = 1;
    size = 0;
    evicted = no_key;
  }

let capacity t = t.cap
let size t = t.size
let slots t = Array.length t.keys
let key_at t n = t.keys.(n)
let top t = t.next.(0)
let next t n = t.next.(n)
let lru t = if t.next.(0) = 0 then -1 else t.prev.(0)
let evicted t = t.evicted

let[@inline] unlink t n =
  let p = t.prev.(n) and q = t.next.(n) in
  t.next.(p) <- q;
  t.prev.(q) <- p

let[@inline] push_top t n =
  let h = t.next.(0) in
  t.next.(n) <- h;
  t.prev.(n) <- 0;
  t.prev.(h) <- n;
  t.next.(0) <- n

let[@inline] move_to_top t n =
  if t.next.(0) <> n then begin
    unlink t n;
    push_top t n
  end

let grow t =
  let n = Array.length t.keys in
  (* double, or go straight to capacity + 1 once doubling would reach the
     capacity: a power-of-two list then never copies its arrays for the
     last slot (written to avoid overflowing for a [max_int] list) *)
  let n' = if n >= t.cap - n then t.cap + 1 else 2 * n in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys no_key;
  t.prev <- extend t.prev 0;
  t.next <- extend t.next 0

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

let[@inline] insert t key =
  if t.size >= t.cap then begin
    let n = t.prev.(0) in
    t.evicted <- t.keys.(n);
    t.keys.(n) <- key;
    move_to_top t n;
    n
  end
  else begin
    t.evicted <- no_key;
    let n = fresh_slot t in
    t.keys.(n) <- key;
    push_top t n;
    t.size <- t.size + 1;
    n
  end

let[@inline] remove t n =
  unlink t n;
  t.next.(n) <- t.free;
  t.free <- n;
  t.size <- t.size - 1

let clear t =
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t.free <- 0;
  t.used <- 1;
  t.size <- 0
