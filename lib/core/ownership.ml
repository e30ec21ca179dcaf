type entry = { line : int; written : bool }
type attr_entry = { a_line : int; a_written : bool; a_ref : int }

type compiled_ref = {
  const_off : int;  (* base address + constant offset *)
  terms : (int * int) array;  (* (slot, coefficient) pairs *)
  size : int;
  write : bool;
}

type t = {
  refs : compiled_ref array;
  line_shift : int;  (* byte [addr] is on line [addr asr line_shift] *)
  nslots : int;
}

let compile ~layout ~line_bytes ~params ~var_slots (nest : Loopir.Loop_nest.t)
    =
  let slot_of v =
    let rec go i = function
      | [] -> None
      | x :: rest -> if x = v then Some i else go (i + 1) rest
    in
    go 0 var_slots
  in
  let compile_ref (r : Loopir.Array_ref.t) =
    let base = Loopir.Layout.addr_of layout r.Loopir.Array_ref.base in
    let off = r.Loopir.Array_ref.offset in
    (* fold parameters into the constant part *)
    let folded =
      Loopir.Affine.subst
        (fun v ->
          match List.assoc_opt v params with
          | Some k -> Some (Loopir.Affine.const k)
          | None -> None)
        off
    in
    let terms =
      List.map
        (fun v ->
          match slot_of v with
          | Some slot -> (slot, Loopir.Affine.coeff folded v)
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Ownership.compile: variable %s of %s is neither a loop \
                    variable nor a parameter"
                   v r.Loopir.Array_ref.repr))
        (Loopir.Affine.vars folded)
    in
    {
      const_off = base + Loopir.Affine.const_part folded;
      terms = Array.of_list terms;
      size = r.Loopir.Array_ref.size_bytes;
      write = Loopir.Array_ref.is_write r;
    }
  in
  {
    refs = Array.of_list (List.map compile_ref nest.Loopir.Loop_nest.refs);
    line_shift = Archspec.Cache_geom.line_shift line_bytes;
    nslots = List.length var_slots;
  }

let lines t idx =
  let acc = ref [] in
  (* first-touch order with write-domination; reference lists are short so a
     linear merge beats hashing *)
  let rec merge line written = function
    | [] -> acc := { line; written } :: !acc
    | e :: _ when e.line = line ->
        if written && not e.written then
          acc :=
            List.map
              (fun x -> if x.line = line then { x with written = true } else x)
              !acc
    | _ :: rest -> merge line written rest
  in
  Array.iter
    (fun r ->
      let addr = ref r.const_off in
      Array.iter
        (fun (slot, coeff) -> addr := !addr + (coeff * idx.(slot)))
        r.terms;
      let first = !addr asr t.line_shift in
      let last = (!addr + r.size - 1) asr t.line_shift in
      for line = first to last do
        merge line r.write !acc
      done)
    t.refs;
  List.rev !acc

(* [lines] with per-entry provenance: each deduplicated line carries
   the index of the reference it is attributed to — the first write
   touching it, else the first touch.  Entry order and written flags are
   exactly those of [lines]. *)
let lines_with_refs t idx =
  let acc = ref [] in
  let rec merge line written rid = function
    | [] -> acc := { a_line = line; a_written = written; a_ref = rid } :: !acc
    | e :: _ when e.a_line = line ->
        if written && not e.a_written then
          acc :=
            List.map
              (fun x ->
                if x.a_line = line then
                  { x with a_written = true; a_ref = rid }
                else x)
              !acc
    | _ :: rest -> merge line written rid rest
  in
  Array.iteri
    (fun rid r ->
      let addr = ref r.const_off in
      Array.iter
        (fun (slot, coeff) -> addr := !addr + (coeff * idx.(slot)))
        r.terms;
      let first = !addr asr t.line_shift in
      let last = (!addr + r.size - 1) asr t.line_shift in
      for line = first to last do
        merge line r.write rid !acc
      done)
    t.refs;
  List.rev !acc

let ref_count t = Array.length t.refs

(* ------------------------------------------------------------------ *)
(* Incremental evaluation: a cursor keeps one running address per
   reference and updates it from index deltas (strength reduction of the
   per-iteration multiply-adds), and a reusable buffer receives the
   deduplicated ownership list without allocating. *)

type cursor = {
  own : t;
  addr : int array;  (* running address of each reference *)
  cur : int array;  (* current index value of each slot *)
  slot_refs : (int * int) array array;
      (* per slot: the (ref index, coefficient) pairs it feeds *)
}

let cursor t =
  let per_slot = Array.make t.nslots [] in
  Array.iteri
    (fun r cref ->
      Array.iter
        (fun (slot, coeff) ->
          if coeff <> 0 then per_slot.(slot) <- (r, coeff) :: per_slot.(slot))
        cref.terms)
    t.refs;
  {
    own = t;
    addr = Array.map (fun cref -> cref.const_off) t.refs;
    cur = Array.make (max 1 t.nslots) 0;
    slot_refs = Array.map (fun l -> Array.of_list (List.rev l)) per_slot;
  }

let cursor_set c slot v =
  let dv = v - Array.unsafe_get c.cur slot in
  if dv <> 0 then begin
    let refs = Array.unsafe_get c.slot_refs slot in
    for i = 0 to Array.length refs - 1 do
      let r, coeff = Array.unsafe_get refs i in
      Array.unsafe_set c.addr r (Array.unsafe_get c.addr r + (coeff * dv))
    done;
    Array.unsafe_set c.cur slot v
  end

type buffer = {
  mutable lin : int array;
  mutable wr : bool array;
  mutable rid : int array;  (* attributed reference per entry *)
  mutable len : int;
}

let buffer () =
  { lin = Array.make 8 0; wr = Array.make 8 false; rid = Array.make 8 0;
    len = 0 }

let buf_len b = b.len
let buf_line b i = b.lin.(i)
let buf_written b i = b.wr.(i)
let buf_ref b i = b.rid.(i)

let push b line written r =
  (* linear-scan dedup with write domination; ownership lists are a
     handful of entries, first-touch order is preserved.  The entry is
     attributed to the first write touching the line (else the first
     touch), mirroring [lines_with_refs]. *)
  let n = b.len in
  let i = ref 0 in
  while !i < n && Array.unsafe_get b.lin !i <> line do
    incr i
  done;
  if !i < n then begin
    if written && not (Array.unsafe_get b.wr !i) then begin
      Array.unsafe_set b.wr !i true;
      Array.unsafe_set b.rid !i r
    end
  end
  else begin
    if n = Array.length b.lin then begin
      let lin = Array.make (2 * n) 0
      and wr = Array.make (2 * n) false
      and rid = Array.make (2 * n) 0 in
      Array.blit b.lin 0 lin 0 n;
      Array.blit b.wr 0 wr 0 n;
      Array.blit b.rid 0 rid 0 n;
      b.lin <- lin;
      b.wr <- wr;
      b.rid <- rid
    end;
    b.lin.(n) <- line;
    b.wr.(n) <- written;
    b.rid.(n) <- r;
    b.len <- n + 1
  end

let fill c b =
  b.len <- 0;
  let t = c.own in
  for r = 0 to Array.length t.refs - 1 do
    let cref = Array.unsafe_get t.refs r in
    let addr = Array.unsafe_get c.addr r in
    let first = addr asr t.line_shift in
    let last = (addr + cref.size - 1) asr t.line_shift in
    for line = first to last do
      push b line cref.write r
    done
  done
