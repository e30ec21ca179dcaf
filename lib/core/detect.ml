let fs_cases_for_insert ~states ~me ~line =
  let n = Array.length states in
  let count = ref 0 in
  for j = 0 to n - 1 do
    if j <> me && Thread_cache_state.holds_modified states.(j) line then
      incr count
  done;
  !count
