(* 32-bit halves: each half's popcount fits the classic SWAR reduction
   without 64-bit constants (OCaml ints are 63-bit, so 0x5555555555555555
   is not representable). *)

let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* the byte-sum multiply wraps at 32 bits in C; OCaml ints are wider, so
     drop the surviving high product bits before extracting the top byte *)
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount x = pop32 (x land 0xFFFFFFFF) + pop32 ((x lsr 32) land 0x7FFFFFFF)
