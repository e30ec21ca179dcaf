(* Open-addressing, linear-probing table over int keys.  The key array is
   flat (sentinel = absent_key); values live in a parallel array that is
   only materialized on the first insertion, which lets ['a t] be created
   without a witness value.  Deletion backward-shifts the probe chain, so
   there are no tombstones and probe sequences stay short.  Probes are
   plain loops over the key array: a lookup allocates nothing.

   A removed slot keeps its last value in the value array (there is no
   "null" of type 'a); this pins at most [capacity] stale values, which is
   harmless for the int / small-record payloads this table is used for. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;  (* [||] until the first insertion *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: multiplicative hash shift *)
  mutable size : int;
}

let absent_key = min_int

(* Fibonacci hashing: spreads sequential keys (line indices) across the
   table while staying a single multiply. *)
let mix = 0x2545F4914F6CDD1D

let rec pow2_geq n b bits =
  if b >= n then (b, bits) else pow2_geq n (b * 2) (bits + 1)

let create ?(initial = 16) () =
  let cap, bits = pow2_geq (max 8 initial) 8 3 in
  {
    keys = Array.make cap absent_key;
    vals = [||];
    mask = cap - 1;
    shift = 63 - bits;
    size = 0;
  }

let length t = t.size
let home t k = (k * mix) lsr t.shift

(* the slot where [k] lives, or else the first empty slot on its chain *)
let probe t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (home t k) in
  let k' = ref (Array.unsafe_get keys !i) in
  while !k' <> k && !k' <> absent_key do
    i := (!i + 1) land mask;
    k' := Array.unsafe_get keys !i
  done;
  !i

let find_slot t k =
  let i = probe t k in
  if Array.unsafe_get t.keys i = k then i else -1

let key_at t i = t.keys.(i)
let value_at t i = t.vals.(i)
let set_at t i v = t.vals.(i) <- v
let mem t k = find_slot t k >= 0

let get t k ~default =
  let i = find_slot t k in
  if i < 0 then default else Array.unsafe_get t.vals i

let find_opt t k =
  let i = find_slot t k in
  if i < 0 then None else Some t.vals.(i)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap absent_key;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  t.vals <- Array.make cap old_vals.(0);
  Array.iteri
    (fun i k ->
      if k <> absent_key then begin
        let j = probe t k in
        t.keys.(j) <- k;
        t.vals.(j) <- old_vals.(i)
      end)
    old_keys

let add_at t i k v =
  if k = absent_key then invalid_arg "Int_table.add_at: reserved key";
  if t.keys.(i) <> absent_key then invalid_arg "Int_table.add_at: slot in use";
  if Array.length t.vals = 0 then t.vals <- Array.make (t.mask + 1) v;
  let i =
    if (t.size + 1) * 4 > (t.mask + 1) * 3 then begin
      grow t;
      probe t k
    end
    else i
  in
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.size <- t.size + 1

let set t k v =
  if k = absent_key then invalid_arg "Int_table.set: reserved key";
  let i = probe t k in
  if t.keys.(i) = k then t.vals.(i) <- v else add_at t i k v

(* backward-shift: walk the chain after the hole and pull back every
   entry whose home position precedes (cyclically covers) the hole *)
let remove_at t i =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  while keys.(!j) <> absent_key do
    let k' = keys.(!j) in
    if (!j - home t k') land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- k';
      vals.(!hole) <- vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- absent_key;
  t.size <- t.size - 1

let remove t k =
  let i = find_slot t k in
  if i < 0 then false
  else begin
    remove_at t i;
    true
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) absent_key;
  t.size <- 0

let iter f t =
  Array.iteri (fun i k -> if k <> absent_key then f k t.vals.(i)) t.keys

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
