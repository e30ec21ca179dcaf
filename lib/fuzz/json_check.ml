(* Shape checks for the JSON the renderers emit, over the service's
   reader (Service.Jsonp): the fuzzer proves the emitted SARIF and
   trace_event documents are well-formed and carry the promised
   top-level shape. *)

open Analysis

let member = Service.Jsonp.member

let parse s =
  Result.map_error (fun m -> "invalid JSON: " ^ m) (Service.Jsonp.parse s)

(* the SARIF shape Diag.to_json promises: a version and one run carrying
   a tool and a results array *)
let validate_sarif s =
  match parse s with
  | Error _ as e -> e
  | Ok v -> (
      match member "version" v with
      | None -> Error "missing \"version\""
      | Some _ -> (
          match member "runs" v with
          | Some (Json.List (run :: _)) -> (
              match (member "tool" run, member "results" run) with
              | Some _, Some (Json.List _) -> Ok ()
              | None, _ -> Error "run missing \"tool\""
              | _, _ -> Error "run missing \"results\" array")
          | Some (Json.List []) -> Error "empty \"runs\""
          | _ -> Error "missing \"runs\" array"))

let is_number = function Some (Json.Int _ | Json.Float _) -> true | _ -> false

(* the Chrome trace_event shape Explain.trace_json promises: an object
   with a traceEvents array whose entries all carry a "ph" phase; every
   instant event (ph = "i") needs ts/pid/tid numbers.  Returns the
   instant-event count so callers can reconcile it with the recorder. *)
let validate_trace s =
  match parse s with
  | Error _ as e -> e
  | Ok v -> (
      match member "traceEvents" v with
      | Some (Json.List events) ->
          let rec go n = function
            | [] -> Ok n
            | e :: rest -> (
                match member "ph" e with
                | Some (Json.Str "M") -> go n rest
                | Some (Json.Str "i") ->
                    if
                      is_number (member "ts" e)
                      && is_number (member "pid" e)
                      && is_number (member "tid" e)
                    then go (n + 1) rest
                    else Error "instant event missing ts/pid/tid"
                | Some (Json.Str ph) -> Error ("unexpected phase " ^ ph)
                | _ -> Error "event missing \"ph\"")
          in
          go 0 events
      | _ -> Error "missing \"traceEvents\" array")
