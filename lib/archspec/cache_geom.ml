type t = {
  name : string;
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  hit_latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let v ?(hit_latency = 1) ~name ~size_bytes ~line_bytes ~associativity () =
  if size_bytes <= 0 then invalid_arg "Cache_geom.v: size_bytes <= 0";
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache_geom.v: line_bytes not a power of two";
  if associativity <= 0 then invalid_arg "Cache_geom.v: associativity <= 0";
  if size_bytes mod (line_bytes * associativity) <> 0 then
    invalid_arg "Cache_geom.v: size not a multiple of line_bytes*assoc";
  { name; size_bytes; line_bytes; associativity; hit_latency }

let lines t = t.size_bytes / t.line_bytes
let sets t = lines t / t.associativity
let fully_associative t = t.associativity = lines t

let line_shift line_bytes =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache_geom.line_shift: line_bytes not a power of two";
  let rec go s = if 1 lsl s = line_bytes then s else go (s + 1) in
  go 0

let line_of_addr t addr = addr asr line_shift t.line_bytes
let set_of_line t line = line mod sets t

let pp ppf t =
  Format.fprintf ppf "%s(%dKB, %dB lines, %d-way, %dcy)" t.name
    (t.size_bytes / 1024) t.line_bytes t.associativity t.hit_latency
