(** The m-component augmented snapshot object (§3, Algorithms 3 and 4).

    Shared by [f] real processes [q_0 .. q_{f-1}] (the paper's
    [q_1 .. q_f]; we 0-index, so [q_0] is the lowest identifier and its
    Block-Updates are always atomic). Implemented from a single-writer
    snapshot [H] ({!Hrep}) as persistent programs on
    {!Rsim_runtime.Prog}'s interpreter: every [H.scan] / [H.update] is a
    scheduling point.

    [Block-Update] is wait-free (exactly 6 steps when atomic, 5 when it
    yields — Lemma 2); [Scan] is non-blocking (at most [2k+3] steps,
    where [k] is the number of concurrent triple-appending updates).

    Line 9 of Algorithm 4 ("h' contains new Block-Update") is implemented
    as [∃ j < i, #h'_j > #h_j]: a Block-Update yields only when a
    {e lower}-identifier process appended triples during its interval.
    The paper's surrounding prose says "higher identifier", but Lemma 10,
    Lemma 13 and Theorem 20 — which the simulation relies on — are all
    stated and proved for lower identifiers; we follow the lemmas. *)

open Rsim_value

(** Operations on the underlying single-writer snapshot [H]. *)
module Ops : sig
  type op =
    | Hscan
    | Happend_triples of Hrep.triple list
        (** Line 4 of Algorithm 4: append one Block-Update's triples *)
    | Happend_lrecords of Hrep.lrecord list
        (** helping writes of Algorithms 3 / 4, batched in one update *)

  (** [Snap h]: the result of an [Hscan], the published [H] itself,
      not a copy. Snapshots are shared and immutable: an append
      publishes a fresh array (copy on write) and never mutates one
      already returned, so every holder of [h] — the scanning process, the
      trace, the M-operation log, an L-record payload — sees the same
      contents forever. Code that holds a snapshot must not mutate it
      either. *)
  type res = Snap of Hrep.snap | Ack

  (** Whether this operation appends update triples (the "updates" that
      Observation 1, Lemma 2 and Theorem 20 talk about). *)
  val appends_triples : op -> bool
end

(** Trace label for an [H] operation (["H.scan"], ["H.append-triples"],
    ["H.append-lrecords"]) — pass as [Prog.start ~obs_label:op_name] for
    readable Chrome-trace lanes. *)
val op_name : Ops.op -> string

(** The {!Rsim_faults.Faults} adapter for [H] operations: dropped writes
    append nothing, corrupted writes garble the first written value.
    Scans are neither droppable nor corruptible. *)
val fault_adapter : Ops.op Rsim_faults.Faults.adapter

type bu_result =
  | Atomic of { view : Value.t array; last : Hrep.snap }
      (** the returned past view, and the scan result ℓ it came from *)
  | Yield

(** Completed M-operations, logged for the checkers ({!Aug_spec}) and for
    the simulation's execution analysis. *)
type mop =
  | Scan_op of {
      proc : int;
      start_idx : int;
      end_idx : int;  (** index of the final [H.scan] = linearization point *)
      n_ops : int;
      view : Value.t array;
      h : Hrep.snap;  (** the final scan's result *)
    }
  | Bu_op of {
      proc : int;
      ts : Vts.t;
      updates : (int * Value.t) list;
      start_idx : int;  (** Line-2 scan *)
      x_idx : int;  (** Line-4 update [X] *)
      end_idx : int;
      n_ops : int;
      h : Hrep.snap;  (** Line-2 scan result *)
      result : bu_result;
    }

val mop_proc : mop -> int

(** Deliberately seeded bugs, for exercising the exploration engine
    ({!Rsim_explore}): each fault mutates the Line-9 yield test of
    Algorithm 4.

    - [Skip_yield_check]: never yield. Under contention the Block-Update
      returns a stale view, violating the window lemmas (17-19).
    - [Yield_on_higher]: test {e higher} instead of lower identifiers
      (the paper's prose bug, see the module comment). Process 0 can
      then yield, violating Theorem 20.
    - [Spin_on_yield]: instead of yielding, busy-wait re-scanning [H]
      forever — a deliberately {e blocking} mutation. No safety oracle
      flags it; only the explorer's progress oracle does. *)
type fault = Skip_yield_check | Yield_on_higher | Spin_on_yield

(** What programs over [H] emit besides operations. Algorithms 3–4 emit
    each completed M-operation as a {!Mop}; layers that build programs
    from them add their own notes (the simulation's journal entries). *)
type note = ..

type note += Mop of mop

(** The programs' runtime: persistent programs over [H]'s operations and
    their interpreter. *)
module Prog :
  Rsim_runtime.Prog.S
    with type op := Ops.op
     and type res := Ops.res
     and type note := note

(** An object's immutable configuration: what programs close over. *)
type config = { f : int; m : int; helping : bool; inject : fault option }

(** An object's shared state: [H], the operation clock and the
    M-operation log. *)
type t

(** [create ~f ~m ()]: fresh object for [f] real processes and [m]
    components of M. [helping] (default true) enables the L-record
    helping mechanism of §3.2; disabling it is the E9 ablation — the
    object still runs, but Block-Updates return their own Line-2 scan
    result instead of the freshest helper-provided view, and the §3.3
    window properties (Lemmas 17-19) break under contention. [inject]
    (default none) seeds a deliberate bug. *)
val create : ?helping:bool -> ?inject:fault -> f:int -> m:int -> unit -> t

val config : t -> config
val f : t -> int
val m : t -> int

(** The [apply] function to pass to {!Prog.start}: executes one [H]
    operation atomically against this object's state. *)
val apply : t -> pid:int -> Ops.op -> Ops.res

(** The [emit] function to pass to {!Prog.start}: logs a completed
    M-operation ({!Mop}); other notes are left to the layer that emits
    them. *)
val record : t -> note -> unit

(** Completed M-operations so far, in completion order. *)
val log : t -> mop list

(** [iter_log t f] calls [f] on {!log}'s entries, in completion order,
    without building the list. *)
val iter_log : t -> (mop -> unit) -> unit

(** Number of [H] operations executed so far. *)
val clock : t -> int

(** The object's state at one point of a run: [H], the clock and the log,
    all persistent values, so saving copies three words. *)
type saved

val save : t -> saved

(** [restore t s] puts [t] back in state [s]; [s] stays valid. *)
val restore : t -> saved -> unit

(** {2 Operations as programs} *)

(** [Scan] (Algorithm 3). Non-blocking: loops until two consecutive
    [H.scan]s agree on update triples. *)
val scan_prog : config -> me:int -> Value.t array Prog.t

(** [Block-Update] (Algorithm 4) to the given distinct components.
    [`View v] means the Block-Update was atomic and [v] is a view of M
    from the returned earlier point; [`Yield] is the paper's [Y]. *)
val block_update_prog :
  config ->
  me:int ->
  (int * Value.t) list ->
  [ `View of Value.t array | `Yield ] Prog.t

(** [random_prog cfg ~me ~seed ~ops ~max_comps ~values]: [ops]
    M-operations drawn from a PRNG seeded with [seed]: a Scan with
    probability 1/3, else a Block-Update to between 1 and
    [min m max_comps] distinct components, each written a value below
    [values]. The same arguments always give the same program. *)
val random_prog :
  config ->
  me:int ->
  seed:int ->
  ops:int ->
  max_comps:int ->
  values:int ->
  unit Prog.t
