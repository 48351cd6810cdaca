(** Executable specification of the augmented snapshot (§3.1, §3.3).

    Given the [H] operations and the completed M-operations of an {!Aug}
    execution, an {!index} reconstructs the paper's linearization, hop by
    hop as the run goes or in one fold over a finished run, and {!report}
    verifies on it every checkable claim of §3:

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
    walks the trace to derive them.

    The index grows with the run: {!hop} adds one [H]-operation (an
    [H.scan], or a Line-4 append with its Updates and their
    linearization points) and {!complete} one completed M-operation. An
    index is an immutable value, so a run that saves its state at a
    scheduling decision keeps the index of that point by keeping the
    pointer, and every branch from there extends the same one. {!index}
    is the fold of the same two steps over a finished run. *)

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
}

(** A completed M.Scan. *)
type scan = private {
  s_log : int;  (** rank among the Scans in log order *)
  s_proc : int;
  s_view : Rsim_value.Value.t array;
  s_end : int;  (** its final [H.scan], the linearization point *)
}

(** The index of one execution, or of a prefix of one. *)
type index

(** [start ~m] is the index of an empty execution on [m] components. *)
val start : m:int -> index

(** [hop ix ~idx ~pid op res] extends [ix] by the [H]-operation [op] of
    process [pid] at trace index [idx], which returned [res]. An append
    of triples adds its Updates: each one's linearization point is fixed
    here, at or before [idx], and never moves. It also settles the
    append's Lemma 9 verdict. *)
val hop : index -> idx:int -> pid:int -> Aug.Ops.op -> Aug.Ops.res -> index

(** [complete ix mop] extends [ix] by the M-operation [mop], completed at
    the hop just added (its [end_idx]), and settles what no later hop can
    change (see {!report}). *)
val complete : index -> Aug.mop -> index

(** [index aug trace] is the index of a finished execution: the fold of
    {!hop} over [trace] (the {!Aug.Prog.run} trace of the same run, whose
    entry [k] has index [k]) with {!complete} applied to each entry of
    [Aug.log aug] right after the hop at its [end_idx]. *)
val index : Aug.t -> Aug.Prog.trace_entry list -> index

(** [bu_of ix u] is the position in [Aug.log] of the completed
    Block-Update with [u]'s (writer, timestamp), the latest one if
    several, or [-1] when that Block-Update never completed. *)
val bu_of : index -> update -> int

(** [iter_lin ix ~update ~scan] walks the linearized execution of
    M-operations in order (§3.3): every Update, including those of
    Block-Updates that executed their Line-4 update but never completed,
    and every completed Scan. An Update linearized at the same trace
    index as a Scan comes first. *)
val iter_lin : index -> update:(update -> unit) -> scan:(scan -> unit) -> unit

(** [window_start ix ~last ~x_idx] locates the point [L] of an atomic
    Block-Update: the latest [H.scan] below [x_idx] whose result is
    triple-equal to the recorded ℓ ([last]), compared by per-component
    triple counts without allocating. A walk back from the latest
    [H.scan]. *)
val window_start : index -> last:Hrep.snap -> x_idx:int -> int option

(** [iter_appended ix ~lo ~hi f] calls [f] on every Update whose Line-4
    append lies strictly inside [(lo, hi)], in trace order; the Updates
    of one append are consecutive. *)
val iter_appended : index -> lo:int -> hi:int -> (update -> unit) -> unit

(** [iter_pending ix f] calls [f] on every Update of a Block-Update that
    never completed ([bu_of ix u = -1]), in trace order. *)
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

    Settled when an operation completes, and kept in the index: Lemma 9
    (at each append: the first writer of a timestamp owns it), Lemmas 11
    and 12 (an atomic Block-Update's Updates linearize at its [X], a
    yielding one's inside [(start, X\]]), Lemma 2 and Theorem 20. None of
    them can change later: a linearization point is fixed when its
    Update is appended, and every append a step count or a yield test
    reads lies inside the operation's interval, so it is out by its
    completion. The one exception is an append that carries the
    (writer, timestamp) of a Block-Update that already completed (a
    dropped write can make one): its Updates join that Block-Update's, so
    the report then judges Lemmas 11 and 12 again over the whole log.

    Judged whole at each call, because a later hop can still change
    them: Corollary 15 (an Update appended later can linearize before a
    Scan that already completed), the contiguity part of Lemma 11 and
    Lemmas 16–19 (a later Update can linearize inside a window or before
    its [L], and a later completion can make a pending Update's
    Block-Update atomic), and Lemma 18. Each is a walk of the linearization or, per atomic
    Block-Update, of the Updates and Scans linearized after its [L];
    contiguity is decided without numbering the linearization when the
    Block-Update's Updates all linearize at its [X] and no other writer
    shares its timestamp. Errors come in the order of a whole-trace
    check: Lemma 9, Corollary 15, Lemmas 11/12, contiguity, windows,
    Lemma 18, then Lemma 2 and Theorem 20. *)
val report : index -> report

(** [check aug trace] is [report (index aug trace)]. *)
val check : Aug.t -> Aug.Prog.trace_entry list -> report
