(** Typed analysis requests — the service's wire- and cache-facing
    contract.

    Every CLI analysis subcommand (analyze/lint/explain/advise/
    eliminate/dump) is a pure function of one of these records; the CLI
    builds them from flags, [fsdetect serve] decodes them from JSON-RPC
    params.  {!cache_key} derives the content-addressed response key:
    source digest, arch spec, schedule/params and the analysis kind —
    and nothing else (no file paths, no timestamps), so identical
    content always meets in the cache. *)

type source =
  | Text of { name : string; content : string }
      (** in-memory mini-C source; [name] is only used as the report URI *)
  | Kernel of string  (** a bundled registry kernel *)
  | Sym_kernel of string
      (** a kernel's size-free parametric variant (symbolic lint path) *)

type fail_on = Race | Fs | Never

type exact_mode = Analysis.Depend.exact_mode

val exact_name : exact_mode -> string
(** ["auto"], ["on"], ["off"] — the CLI/JSON spelling. *)

type cost_model = Analysis.Lint.cost_model
(** [`Sim] (engine-backed, default), [`Analytic] (reuse-distance +
    closed form, zero simulator calls) or [`Both]; part of the cache
    key. *)

type kind =
  | Analyze of {
      func : string option;
      threads : int;
      fs_chunk : int option;  (** default: kernel's, or 1 for sources *)
      nfs_chunk : int option;  (** default: kernel's, or 16 for sources *)
      predict : int option;
      contention : bool;
      exact : exact_mode;
      exact_budget : int;
      cost_model : cost_model;
      json : bool;  (** structured (JSON) report instead of text *)
    }
  | Lint of {
      threads : int;
      chunk : int option;
      json : bool;
      fixits : bool;
      params : (string * int) list;
      fail_on : fail_on;
      exact : exact_mode;  (** exact dependence tier (see {!Analysis.Lint}) *)
      exact_budget : int;
      cost_model : cost_model;
      sched : Ompsched.Dispatch.kind option;
          (** replay a nondeterministic schedule ([--schedule]); [None]
              follows the pragma *)
      seeds : int;  (** seed-set size for distribution-valued verdicts *)
    }
  | Explain of {
      func : string option;
      threads : int;
      chunk : int option;
      params : (string * int) list;
      engine : Fsmodel.Model.engine;
      format : [ `Text | `Heatmap | `Trace ];
      top : int;
      trace_cap : int option;
      sched : Ompsched.Dispatch.kind option;
          (** replay a nondeterministic schedule; attribution aggregates
              across the seed set *)
      seeds : int;
    }
  | Advise of { func : string option; threads : int; jobs : int option }
  | Eliminate of { func : string option; threads : int }
  | Fix of {
      func : string option;
      threads : int;
      jobs : int option;
          (** parallelizes the advisor sweep only; not in the cache key *)
      json : bool;  (** structured verdict instead of the text report *)
    }
      (** materialize the advised fix and re-verify it (see
          {!Analysis.Fixer}) *)
  | Dump of { threads : int }

type t = { source : source; arch : Archspec.Arch.t; kind : kind }

val v : ?arch:Archspec.Arch.t -> source -> kind -> t
(** [arch] defaults to {!Archspec.Arch.paper_machine} (what every CLI
    subcommand uses). *)

val lint_defaults : source -> t
(** The CLI's default lint request (8 threads, pragma chunk, fix-its
    on): what [fsdetect lint] runs with no flags. *)

val arch_key : Archspec.Arch.t -> string
(** Canonical digest of an arch spec covering every field that can
    change an analysis (geometry, latencies, per-class core model). *)

val source_text : source -> (string * string, string) result
(** [(uri, content)] the source resolves to: the display URI the CLI
    would use ([FILE], ["kernel:NAME"], ["kernel:NAME:parametric"]) and
    the mini-C text.  [Error msg] when a kernel name is unknown or has
    no parametric variant; [msg] matches the CLI diagnostic. *)

val cache_key : t -> (string, string) result
(** The response-stage cache key (kind tag + source digest + arch key +
    every option that affects output bytes). *)

val of_json : meth:string -> Analysis.Json.t -> (t, string) result
(** Decode JSON-RPC [params] for method [meth].  Source is given as
    ["source"] (+ optional ["name"]) or ["kernel"] (+ optional
    ["parametric": true]); ["arch"] is ["paper"] (default) or
    ["small_test"], with an optional ["line_bytes"] override; remaining
    fields mirror the CLI flags of the subcommand. *)
