(** JSON parsing and one-line printing for the serve protocol.

    {!Analysis.Json} deliberately ships only the pretty printer the lint
    goldens need; the newline-delimited JSON-RPC protocol of
    [fsdetect serve] additionally needs to {e read} JSON and to emit each
    response as a single line.  Both directions reuse the
    {!Analysis.Json.t} tree so the service layer has exactly one JSON
    representation. *)

val parse : string -> (Analysis.Json.t, string) result
(** Parse one JSON document.  Numbers without ['.'], ['e'] or ['E'] become
    [Int], everything else [Float]; [\uXXXX] escapes are decoded to UTF-8.
    Trailing non-whitespace after the document is an error.  The error
    string names the byte offset of the problem. *)

val to_line : Analysis.Json.t -> string
(** Compact single-line rendering (no newlines, no indentation), suitable
    for one-response-per-line framing.  Strings are escaped with
    {!Analysis.Json.escape}, so embedded newlines stay inside the line. *)

(** {2 Accessors}

    Small total helpers over {!Analysis.Json.t} used by request
    decoding; all return [None] on a shape mismatch. *)

val member : string -> Analysis.Json.t -> Analysis.Json.t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_string_opt : Analysis.Json.t -> string option
val to_int_opt : Analysis.Json.t -> int option
val to_bool_opt : Analysis.Json.t -> bool option
