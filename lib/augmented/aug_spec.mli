(** Executable specification of the augmented snapshot (§3.1, §3.3).

    Given the complete trace of [H] operations and the log of completed
    M-operations from an {!Aug} execution, {!index} reconstructs the
    paper's linearization once, and {!report} verifies on it every
    checkable claim of §3:

    - {b Lemma 2} (step complexity): each Block-Update performs at most 6
      [H]-steps; each Scan performs at most [2k+3] steps, where [k] is
      the number of triple-appending updates by other processes
      concurrent with it.
    - {b Lemma 9}: all Block-Update timestamps are distinct.
    - {b Lemma 11}: the Updates of an atomic Block-Update linearize at
      its Line-4 update [X], consecutively, in component order.
    - {b Lemma 12}: the Updates of a yielding Block-Update linearize
      after its Line-2 scan and no later than its [X].
    - {b Corollary 15}: every completed Scan returns, for each component,
      the value of the last Update linearized before it.
    - {b Lemmas 16–19} (windows): each atomic Block-Update returns the
      contents of M at a point [L] inside its execution interval and
      before [X]; no Scan linearizes in the window [(L, X]]; windows of
      distinct atomic Block-Updates are pairwise disjoint; only Updates
      of non-atomic Block-Updates by other processes linearize inside a
      window.
    - {b Theorem 20}: a Block-Update yields only if a lower-identifier
      process appended triples during its execution interval; process 0
      never yields.

    The linearization point of an Update to component [j] with timestamp
    [t] is the first trace index at which [H] contains a triple for [j]
    with timestamp [≽ t]; ties are ordered by timestamp then component
    (§3.3). Scans linearize at their final [H.scan]. *)

(** {2 The trace index}

    The facts about one execution that every post-run checker reads:
    each Update's linearization point, each Block-Update's Line-4 append
    and each atomic Block-Update's window start [L]. Besides {!report},
    the explorer's race and Wing–Gong oracles and the simulation's
    Lemma 26 replay read them, through the accessors below; nothing else
    walks the trace to derive them. *)

(** One Update of M: one triple of a Line-4 append. *)
type update = private {
  u_id : int;  (** position among the Updates, in trace order *)
  u_writer : int;  (** the appending process *)
  u_ts : Vts.t;  (** its Block-Update's timestamp *)
  u_comp : int;
  u_value : Rsim_value.Value.t;
  u_x_idx : int;  (** trace index of the Line-4 append [X] *)
  u_lin : int;  (** linearization point (trace index) *)
  u_g : int;  (** position in its append, so in its Block-Update *)
  u_inv : int;
      (** the writer's last [H.scan] before [X] (its Line-2 scan, the
          invocation point), or [u_x_idx] if it has none *)
  mutable u_bu : int;
      (** position in [Aug.log] of the completed Block-Update with this
          Update's (writer, timestamp), the latest one if several; [-1]
          when the Block-Update never completed *)
}

(** A completed M.Scan. *)
type scan = private {
  s_log : int;  (** rank among the Scans in log order *)
  s_proc : int;
  s_view : Rsim_value.Value.t array;
  s_end : int;  (** its final [H.scan], the linearization point *)
}

(** The index of one execution. *)
type index

(** [index aug trace] builds the index of a finished execution. [trace]
    is the {!Aug.Prog.run} trace of the same run, whose entry [k] has index [k].
    One pass over [trace] finds every Update's linearization point and
    its writer's preceding [H.scan]; nearly sorted arrays then order the
    Updates by linearization point, the Line-4 appends by (timestamp,
    writer) and the Scans by their final [H.scan], and a binary search
    per completed Block-Update classifies its Updates. *)
val index : Aug.t -> Aug.Prog.trace_entry list -> index

(** [iter_lin ix ~update ~scan] walks the linearized execution of
    M-operations in order (§3.3): every Update, including those of
    Block-Updates that executed their Line-4 update but never completed,
    and every completed Scan. An Update linearized at the same trace
    index as a Scan comes first. *)
val iter_lin : index -> update:(update -> unit) -> scan:(scan -> unit) -> unit

(** [window_start ix ~last ~x_idx] locates the point [L] of an atomic
    Block-Update: the latest [H.scan] below [x_idx] whose result is
    triple-equal to the recorded ℓ ([last]), compared by per-component
    triple counts without allocating. A walk back from [x_idx]. *)
val window_start : index -> last:Hrep.snap -> x_idx:int -> int option

(** [iter_appended ix ~lo ~hi f] calls [f] on every Update whose Line-4
    append lies strictly inside [(lo, hi)], in trace order; the Updates
    of one append are consecutive. *)
val iter_appended : index -> lo:int -> hi:int -> (update -> unit) -> unit

(** [iter_pending ix f] calls [f] on every Update of a Block-Update that
    never completed ([u_bu = -1]), in trace order. *)
val iter_pending : index -> (update -> unit) -> unit

(** {2 The checker} *)

type stats = {
  n_scans : int;
  n_bus : int;
  n_atomic : int;
  n_yield : int;
  n_incomplete_bus : int;  (** X executed but the M-op never completed *)
  max_scan_ops : int;
  max_bu_ops : int;
}

type report = { ok : bool; errors : string list; stats : stats }

val pp_report : Format.formatter -> report -> unit

(** [report ix] validates the execution [ix] indexes.

    Cost, beyond the index: one replay of M along the linearization
    checks Corollary 15, numbers it for Lemma 11 and takes M at each
    window's [L] for Lemma 19. Per M-operation, the rest is a binary
    search and a bounded walk: its own Updates for Lemmas 11 and 12, the
    triple appends inside its interval (Theorem 20 stops at the first
    lower-identifier one), the Scans and Updates inside an atomic
    Block-Update's window, and the walk back from its [X] to the first
    scan matching ℓ that locates [L]. Only Lemma 18 compares windows
    pairwise. *)
val report : index -> report

(** [check aug trace] is [report (index aug trace)]. *)
val check : Aug.t -> Aug.Prog.trace_entry list -> report
