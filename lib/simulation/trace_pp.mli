(** Human-readable rendering of simulation runs.

    Debugging a revisionist simulation means reading three intertwined
    timelines: raw [H]-operations, the M-operations they comprise
    (numbered per simulator: [q1 op#3] is q1's third, the serial its
    journal names it by), and the simulators' journals (where pasts were
    revised, which hidden steps were inserted, what was output). These
    printers render each, plus a combined report. *)

(** The raw single-writer-snapshot operations, one line each. *)
val pp_htrace :
  Format.formatter -> Rsim_augmented.Aug.Prog.trace_entry list -> unit

(** Everything about a finished run: architecture, per-simulator
    journals, M-operation log, and outcome. *)
val pp_run : Format.formatter -> Harness.spec -> Harness.result -> unit
