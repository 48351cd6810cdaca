(** Executable specification of the augmented snapshot (§3.1, §3.3).

    Given the complete trace of [H] operations and the log of completed
    M-operations from an {!Aug} execution, [check] reconstructs the
    paper's linearization and verifies every checkable claim of §3:

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

(** {2 Linearization reconstruction}

    Used by [check] below and by the simulation's execution analysis
    (Lemma 26 replay). *)

(** One item of the linearized execution of M-operations. *)
type litem =
  | L_scan of { proc : int; view : Rsim_value.Value.t array; end_idx : int }
      (** a completed M.Scan, linearized at its final [H.scan] *)
  | L_update of {
      writer : int;
      ts : Vts.t;
      comp : int;
      value : Rsim_value.Value.t;
      x_idx : int;  (** index of the Line-4 update that appended it *)
      lin_idx : int;  (** linearization point (trace index) *)
    }

(** The linearized sequence of M.Scans and M.Updates of an execution, in
    linearization order (§3.3). Includes the Updates of Block-Updates
    that executed their Line-4 update but never completed. An Update
    linearized at the same trace index as a Scan comes first. *)
val linearize : Aug.t -> Aug.F.trace_entry list -> litem list

(** [window_start ~trace ~last ~x_idx] locates the point [L] of an atomic
    Block-Update: the latest [H.scan] below [x_idx] whose result is
    triple-equal to the recorded ℓ ([last]), compared by per-component
    triple counts without allocating. [trace] is in execution order; the
    walk stops at [x_idx]. *)
val window_start :
  trace:Aug.F.trace_entry list -> last:Hrep.snap -> x_idx:int -> int option

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

(** [check aug trace] validates one finished execution. [trace] is the
    [F.run] trace of the same run, whose entry [k] has index [k].

    Cost: the index {!linearize} builds, once: a pass over [trace] that
    finds every Update's linearization point, and nearly sorted arrays
    of the Updates in linearization order and of the Scans by their
    final [H.scan]. [check] adds the trace as an array and the Line-4
    appends sorted by (timestamp, writer), which classify the Updates by
    Block-Update. One replay of M along the linearization checks Corollary 15, numbers
    it for Lemma 11 and takes M at each window's [L] for Lemma 19. Per
    M-operation, the rest is a binary search and a bounded walk: its own
    Updates for Lemmas 11 and 12, the triple appends inside its interval
    (Theorem 20 stops at the first lower-identifier one), the Scans and
    Updates inside an atomic Block-Update's window, and the walk back
    from its [X] to the first scan matching ℓ that locates [L]. Only
    Lemma 18 compares windows pairwise. *)
val check : Aug.t -> Aug.F.trace_entry list -> report
