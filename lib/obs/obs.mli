(** The observability plane: structured logging, a metrics registry, and
    a span/event tracer shared by the runtime, the augmented
    snapshot, the revisionist-simulation harness, and the schedule
    explorer.

    Zero dependencies (stdlib only) so every library in the repository
    can sit on top of it. Designed around two constraints:

    - {b Off is (nearly) free.} Counter increments and histogram
      observations are single atomic read-modify-writes with no
      allocation, so they stay on permanently. Trace emission is guarded
      by {!Trace.enabled} (one atomic load when off).
    - {b Domain-safe.} The explorer sweeps run workloads from several
      [Domain]s concurrently; counters and histograms are [Atomic]-based
      and the trace buffer is mutex-protected, so telemetry from parallel
      runs aggregates correctly. *)

(** {1 JSON} *)

(** A small JSON value type with a printer and parser, used for metric
    dumps, trace files, artifacts, and the benchmark snapshot. Integers
    are kept distinct from floats so artifact scripts round-trip
    exactly. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (** Compact single-line rendering. Non-finite floats are emitted as
      [null] (JSON has no representation for them). *)
  val to_string : t -> string

  (** Multi-line rendering with two-space indentation. *)
  val to_string_pretty : t -> string

  val parse : string -> (t, string) result

  (** [member k j] is the value of field [k] if [j] is an object that
      has it. *)
  val member : string -> t -> t option
end

(** {1 Leveled logging} *)

(** The single diagnostics facade for the whole repository. Errors
    print by default; [RSIM_LOG=debug|info|warn|error] sets the least
    severe level printed and [RSIM_LOG=quiet] silences everything. It
    always writes to [stderr] so machine-readable stdout (metrics dumps,
    artifacts) stays clean. The [msgf] style
    ([Log.debug (fun k -> k "fmt" ...)]) means disabled levels never
    format their arguments. *)
module Log : sig
  type level = Error | Warn | Info | Debug

  (** Re-read [RSIM_LOG]. Called automatically at module
      initialization; call again if the environment changed. *)
  val init_from_env : unit -> unit

  type 'a msgf = (('a, out_channel, unit) format -> 'a) -> unit

  val err : 'a msgf -> unit
  val info : 'a msgf -> unit
  val debug : 'a msgf -> unit
end

(** {1 Metrics} *)

module Metrics : sig
  (** A monotonically increasing event count. *)
  type counter

  (** An integer level: overwritten by {!set} or moved by {!shift}. *)
  type gauge

  (** A distribution over non-negative integers with fixed log-spaced
      (power-of-two) buckets. *)
  type histogram

  (** [counter name] registers (or retrieves — registration is
      idempotent by name) the counter [name]. Raises [Invalid_argument]
      if [name] is already registered as a different metric kind. *)
  val counter : string -> counter

  val incr : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  val gauge : string -> gauge
  val set : gauge -> int -> unit

  (** [shift g k] adds [k] (possibly negative) to [g] atomically, so
      gauges that track a level (e.g. a frontier's depth) stay exact when
      several domains move them at once. *)
  val shift : gauge -> int -> unit
  val gauge_value : gauge -> int

  val histogram : string -> histogram

  (** [observe h v] records [v] in the bucket whose upper bound is the
      smallest power of two [>= v] (values [<= 1] land in bucket 0,
      values above [2^30] in the overflow bucket). No allocation. *)
  val observe : histogram -> int -> unit

  val histogram_count : histogram -> int
  val histogram_sum : histogram -> int

  (** Per-bucket counts, in bucket order; length {!n_buckets}. *)
  val histogram_counts : histogram -> int array

  (** 32: buckets with upper bounds [2^0 .. 2^30] plus one overflow
      bucket. *)
  val n_buckets : int

  (** [bucket_index v] is the bucket [observe] files [v] under. *)
  val bucket_index : int -> int

  (** [bucket_upper_bound i] is bucket [i]'s inclusive upper bound, or
      [None] for the overflow bucket. *)
  val bucket_upper_bound : int -> int option

  (** Zero every registered metric (the registry itself is kept). Used
      for per-run telemetry snapshots ([rsim stats]). *)
  val reset : unit -> unit

  (** All registered metrics:
      [{"counters": {name: int, ...},
        "gauges": {name: int, ...},
        "histograms": {name: {"count": int, "sum": int,
                              "buckets": [[upper_bound, count], ...]}}}]
      Histogram buckets list only non-empty buckets; the overflow
      bucket's upper bound is [-1]. Keys are sorted. *)
  val to_json : unit -> Json.t

  (** Human-readable dump of every non-zero metric. *)
  val pp : Format.formatter -> unit -> unit
end

(** {1 Tracing} *)

(** An in-memory event tracer in Chrome [trace_event] format (load the
    output in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto})
    with a JSONL fallback. Timestamps are {e logical}: instrumentation
    passes the runtime's operation index as [ts], so traces are
    deterministic and replay-stable. The Chrome [tid] is the in-run
    process id; the Chrome [pid] is the OCaml domain that
    recorded the event, which separates the explorer's parallel sweep
    lanes. *)
module Trace : sig
  (** One atomic load; the guard for every emission site. *)
  val enabled : unit -> bool

  (** [start ()] clears the buffer and begins collecting every event. *)
  val start : unit -> unit

  val stop : unit -> unit
  val clear : unit -> unit

  (** Number of buffered events. *)
  val length : unit -> int

  (** A point event ([ph = "i"]). [pid] is the in-run process id. *)
  val instant :
    ?args:(string * Json.t) list -> name:string -> pid:int -> ts:int ->
    unit -> unit

  (** A span ([ph = "X"]) covering [ts .. ts + dur]. *)
  val complete :
    ?args:(string * Json.t) list -> name:string -> pid:int -> ts:int ->
    dur:int -> unit -> unit

  (** The full buffer as a Chrome [trace_event] JSON object
      ([{"traceEvents": [...]}]), events in recording order. *)
  val to_chrome : unit -> Json.t

  (** The buffer as compact JSONL: one event object per line. *)
  val to_jsonl : unit -> string

  (** Write the buffer to [path]: JSONL if [path] ends in [.jsonl],
      Chrome JSON otherwise. *)
  val write : path:string -> unit -> unit
end
