type t = { geom : Archspec.Cache_geom.t; sets : unit Lru_stack.t array }

let create geom =
  let nsets = Archspec.Cache_geom.sets geom in
  {
    geom;
    sets =
      Array.init nsets (fun _ ->
          Lru_stack.create ~capacity:geom.Archspec.Cache_geom.associativity);
  }

let set_of t line = t.sets.(Archspec.Cache_geom.set_of_line t.geom line)

let access t line =
  let s = set_of t line in
  if Lru_stack.touch s line then `Hit
  else
    let victim = Lru_stack.add s line () in
    `Miss (if victim = Lru_stack.no_key then None else Some victim)

let mem t line = Lru_stack.mem (set_of t line) line
let invalidate t line = Lru_stack.remove (set_of t line) line <> None
let size t = Array.fold_left (fun acc s -> acc + Lru_stack.size s) 0 t.sets
