(* Recursive-descent JSON reader and a compact printer over the
   Analysis.Json tree.  The reader is strict where the protocol needs it
   to be (a malformed request must produce an error response, never a
   crash) and small everywhere else: no streaming, documents arrive one
   per line and are a few kilobytes at most. *)

open Analysis

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  let n = String.length st.s in
  while
    st.pos < n
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* \uXXXX -> UTF-8 bytes; surrogate pairs combine, unpaired surrogates
   encode as-is (the protocol only ever carries ASCII, this is
   completeness, not a unicode stack) *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let read_hex4 st =
  if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
  let code = ref 0 in
  for k = 0 to 3 do
    let v = hex_val st.s.[st.pos + k] in
    if v < 0 then fail (st.pos + k) "bad \\u escape";
    code := (!code * 16) + v
  done;
  st.pos <- st.pos + 4;
  !code

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | None -> fail st.pos "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let code = read_hex4 st in
                if
                  code >= 0xd800 && code <= 0xdbff
                  && st.pos + 2 <= String.length st.s
                  && st.s.[st.pos] = '\\'
                  && st.s.[st.pos + 1] = 'u'
                then begin
                  let save = st.pos in
                  st.pos <- st.pos + 2;
                  let lo = read_hex4 st in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    add_utf8 buf
                      (0x10000 + ((code - 0xd800) lsl 10) + (lo - 0xdc00))
                  else begin
                    st.pos <- save;
                    add_utf8 buf code
                  end
                end
                else add_utf8 buf code
            | c -> fail (st.pos - 1) (Printf.sprintf "bad escape '\\%c'" c)));
        go ()
    | Some c when Char.code c < 0x20 -> fail st.pos "control byte in string"
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let n = String.length st.s in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < n && is_num_char st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
  in
  if is_float then
    match float_of_string_opt tok with
    | Some f -> Json.Float f
    | None -> fail start ("bad number " ^ tok)
  else
    match int_of_string_opt tok with
    | Some i -> Json.Int i
    | None -> fail start ("bad number " ^ tok)

let expect_word st w v =
  let n = String.length w in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = w
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st.pos ("expected " ^ w)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '"' -> Json.Str (parse_string st)
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Json.Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              go ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st.pos "expected ',' or '}'"
        in
        go ();
        Json.Obj (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Json.List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              go ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st.pos "expected ',' or ']'"
        in
        go ();
        Json.List (List.rev !items)
      end
  | Some 't' -> expect_word st "true" (Json.Bool true)
  | Some 'f' -> expect_word st "false" (Json.Bool false)
  | Some 'n' -> expect_word st "null" Json.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected '%c'" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing input at byte %d" st.pos)
      else Ok v
  | exception Bad (pos, msg) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

let rec add_line buf t =
  match t with
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Int n -> Buffer.add_string buf (string_of_int n)
  | Json.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Json.escape s);
      Buffer.add_char buf '"'
  | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_line buf item)
        items;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (Json.escape k);
          Buffer.add_string buf "\":";
          add_line buf v)
        fields;
      Buffer.add_char buf '}'

let to_line t =
  let buf = Buffer.create 256 in
  add_line buf t;
  Buffer.contents buf

let member key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Json.Str s -> Some s | _ -> None
let to_int_opt = function Json.Int i -> Some i | _ -> None
let to_bool_opt = function Json.Bool b -> Some b | _ -> None
