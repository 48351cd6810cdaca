(** The m-component augmented snapshot object (§3, Algorithms 3 and 4).

    Shared by [f] real processes [q_0 .. q_{f-1}] (the paper's
    [q_1 .. q_f]; we 0-index, so [q_0] is the lowest identifier and its
    Block-Updates are always atomic). Implemented from a single-writer
    snapshot [H] ({!Hrep}) on top of the fiber runtime: every [H.scan] /
    [H.update] is a scheduling point.

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

  type res = Snap of Hrep.snap | Ack

  (** Whether this operation appends update triples (the "updates" that
      Observation 1, Lemma 2 and Theorem 20 talk about). *)
  val appends_triples : op -> bool
end

(** The fiber runtime instantiated at [H]'s operation type. Simulator
    code runs inside [F.run]. *)
module F :
  Rsim_runtime.Fiber.S with type op := Ops.op and type res := Ops.res

(** Trace label for an [H] operation (["H.scan"], ["H.append-triples"],
    ["H.append-lrecords"]) — pass as [F.run ~obs_label:op_name] for
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

type t

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

(** [create ~f ~m ()]: fresh object for [f] real processes and [m]
    components of M. [helping] (default true) enables the L-record
    helping mechanism of §3.2; disabling it is the E9 ablation — the
    object still runs, but Block-Updates return their own Line-2 scan
    result instead of the freshest helper-provided view, and the §3.3
    window properties (Lemmas 17-19) break under contention. [inject]
    (default none) seeds a deliberate bug. *)
val create : ?helping:bool -> ?inject:fault -> f:int -> m:int -> unit -> t

val f : t -> int
val m : t -> int

(** The [apply] function to pass to {!F.run}: executes one [H] operation
    atomically against this object's state. *)
val apply : t -> pid:int -> Ops.op -> Ops.res

(** Completed M-operations so far, in completion order. *)
val log : t -> mop list

(** Number of [H] operations executed so far. *)
val clock : t -> int

(** Current contents of [H] (a snapshot copy). *)
val h_state : t -> Hrep.snap

(** {2 Operations — callable only from inside a fiber run with
    [F.run ~apply:(apply t)]} *)

(** [Scan] (Algorithm 3). Non-blocking: loops until two consecutive
    [H.scan]s agree on update triples. *)
val scan : t -> me:int -> Value.t array

(** [Block-Update] (Algorithm 4) to the given distinct components.
    [`View v] means the Block-Update was atomic and [v] is a view of M
    from the returned earlier point; [`Yield] is the paper's [Y]. *)
val block_update :
  t -> me:int -> (int * Value.t) list -> [ `View of Value.t array | `Yield ]
