(** Shape checks for the JSON documents the renderers emit, read with
    {!Service.Jsonp.parse} (numbers are [Int] or [Float]).  The fuzzer
    uses them to prove the lint renderer's SARIF and the explain trace
    renderer's [trace_event] output are well-formed and carry the
    promised top-level shape. *)

val validate_sarif : string -> (unit, string) result
(** Parse and check the SARIF shape the lint renderer promises: a
    top-level object with a ["version"] and a non-empty ["runs"] array
    whose first run has a ["tool"] and a ["results"] array. *)

val validate_trace : string -> (int, string) result
(** Parse and check the Chrome [trace_event] shape the explain trace
    renderer promises: a ["traceEvents"] array of metadata ([ph = "M"])
    and instant ([ph = "i"], with numeric [ts]/[pid]/[tid]) events.
    [Ok n] carries the instant-event count, which callers reconcile
    with the recorder's retained-trace length. *)
