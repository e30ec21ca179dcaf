(** The analysis service: every subcommand as a pure
    [request -> response] function over a shared staged memo cache.

    A {!payload} is exactly what the CLI process would do with the
    request: [output] is the bytes for stdout, [err] the bytes for
    stderr, [code] the exit code.  [bin/fsdetect.ml] subcommands are
    thin wrappers that print the three; [fsdetect serve] encodes them
    into JSON-RPC results.  Responses are deterministic functions of the
    request record — same request, same bytes, whether computed cold or
    returned from cache.

    {b Staging.}  One {!store} holds four content-addressed stages:
    ["parse"] (source digest → AST), ["typecheck"] (source digest →
    checked program), ["lower"]/["lower_all"] (source digest + function
    + parameter bindings → loop IR) and ["resp"] (full request key →
    payload).  A request that misses the response stage still reuses
    every upstream stage another request already paid for: re-linting an
    edited file re-parses, but re-linting the same file under a new arch
    spec or chunk size reuses parse, typecheck and lowering. *)

type store
(** A bounded LRU over all stages; safe to share across domains. *)

val create_store : ?capacity:int -> unit -> store
(** [capacity] (default [1024] entries) is the {!Cache} bound. *)

val stats : store -> Cache.stats
val stage_stats : store -> string -> int * int
(** [(hits, misses)] for one of the stage names above. *)

val clear : store -> unit

val version : string
(** Tool version, e.g. ["1.0.0"]; printed by [fsdetect --version] and
    returned by the serve ["version"] method. *)

val version_string : string
(** [version] plus the active default arch key
    (["1.0.0+arch.<digest12>"]) — pins which machine model the reported
    numbers default to. *)

type payload = { output : string; err : string; code : int }
(** [output]/[err] are the exact stdout/stderr bytes of the equivalent
    CLI invocation; [code] its exit code ([0] success, [1] analysis or
    input failure / [--fail-on] gate, [3] internal invariant breach). *)

val exec : store -> Req.t -> payload
(** Run (or recall) one request.  Never raises: analysis-level errors
    (parse/type/lowering failures, unknown kernels, unbound parameters)
    come back as payloads with a non-zero [code] and the CLI's
    diagnostic in [err]. *)

val error_message : exn -> string option
(** The diagnostic (newline-terminated) for an exception that is the
    input's fault — parse, lex, preprocessor and type errors, loops that
    cannot be lowered, and loop bounds that do not evaluate: unbound
    identifiers, division by zero, non-integer expressions.  [exec]
    answers these with exit code [1] and this text on stderr; [None]
    for anything else. *)

val stats_json : store -> Analysis.Json.t
(** Cache counters as a JSON object (the serve ["cache_stats"] method). *)
