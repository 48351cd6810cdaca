(** rsim-lint: the repository's static-analysis plane (DESIGN §10).

    A rule engine over compiler-libs Parsetrees enforcing the
    concurrency and determinism discipline the parallel exploration
    engine relies on:

    - {b R1} no bare mutable state ([ref] / [Hashtbl.create] /
      [Array.make]…) reachable from Domain-spawned code — structure
      level in a [Domain.spawn]ing module, or a [let] whose scope
      spawns — unless it is [Atomic] / [Mutex] / [Condition], or
      annotated [[@rsim.shared "why"]] with a mandatory rationale.
      Mutable record fields declared in spawning modules likewise.
    - {b R2} no direct printing ([Printf.printf] / [print_*] /
      [prerr_*] / [Format.printf]) in [lib/]; diagnostics go through
      {!Rsim_obs.Obs.Log}.
    - {b R3} no ambient nondeterminism ([Random.*],
      [Unix.gettimeofday], [Unix.time], [Sys.time]) in the
      deterministic paths ([lib/runtime], [lib/augmented],
      [lib/explore]).
    - {b R4} no partial functions ([List.hd], [List.tl], [Option.get],
      bare [failwith]) on those same hot paths.
    - {b R5} every [lib/] module has a sibling [.mli].
    - {b R6} every top-level [val] of a [lib/] [.mli] is referred to by
      some module outside its library (in [lib/], [bin/], [dev/],
      [test/], [perfbench/] or [examples/]), so interfaces hold only
      what other modules use.

    Findings are diffed against a committed baseline keyed by
    (rule, file, message) so CI fails only on regressions; an entry may
    carry a ["reason"], which the diff ignores and rewriting the
    baseline keeps for every key still found. The JSON report is
    [{tool; files; total; fresh; findings}]. *)

type finding = {
  rule : string;  (** ["R1"]..["R6"], or ["parse"] for unparseable files *)
  file : string;  (** repository-relative path *)
  line : int;
  col : int;
  message : string;
}

type report = { files : int;  (** files scanned *) findings : finding list }

(** Lint source text directly (fixture tests). *)
val lint_source : file:string -> string -> finding list

(** Walk the workspace and apply every rule: R1–R5 to the [.ml] files
    under [dirs] (default [lib bin dev], skipping [_build]-style
    directories), R6 to [lib/]'s interfaces. Findings are sorted by
    (file, line, rule, message). *)
val scan : ?dirs:string list -> root:string -> unit -> report

(** {2 Report + baseline} *)

(** The JSON report, [{tool; files; total; fresh; findings}]. *)
val report_to_json :
  tool:string -> fresh:finding list -> report -> Rsim_obs.Obs.Json.t

(** A baseline entry: the (rule, file, message) key that excuses a
    finding, and the reason it is excused, if one is given. *)
type entry = { key : string * string * string; reason : string option }

(** The baseline that excuses [findings]. A finding whose key has an
    entry in [previous] keeps that entry's reason. *)
val baseline_to_string : previous:entry list -> finding list -> string

val baseline_of_string : string -> (entry list, string) result

(** [Ok []] when the file does not exist. *)
val load_baseline : path:string -> (entry list, string) result

(** The findings not excused by the baseline. *)
val fresh_against : baseline:entry list -> finding list -> finding list

val pp_finding : Format.formatter -> finding -> unit
