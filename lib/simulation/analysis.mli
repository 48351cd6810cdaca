(** Executable check of the simulation's correctness invariant (Lemma 26,
    Lemma 27).

    Given a completed {!Harness} run, [check] reconstructs the simulated
    execution σ̄ of protocol Π that the paper's Lemma 26 asserts exists.
    It reads the trace index the run carries ({!Harness.result}'s
    [index]; it builds none): the linearization walk, each Update's
    position in its Block-Update and each window start [L]. A journal
    names a simulator's M-operations by serial: serial [s] of simulator
    [i] is [i]'s [s]-th M-operation in the object's log. Its own work is
    to replay:

    + the linearized M.Scans and M.Updates of the real execution are
      mapped to the simulated steps they simulate (an M.Scan by [q_i] to
      a scan by [p_{i,1}]; the update to component [j] of a Block-Update
      to the update its [g]-th simulated process was poised to perform);
    + every hidden execution ζ recorded by a covering simulator when it
      revised the past of a process is {b inserted} at the window start
      [L] of the atomic Block-Update whose view it used;
    + each covering simulator's final locally-simulated block β and
      terminating solo run ξ are appended at the end (Lemma 27).

    The resulting sequence is then {b replayed} from the initial
    configuration of the simulated system: every step must be exactly
    the next step of its process (state applicability), every scan —
    real, hidden, or final — must return exactly the replayed contents
    of M, and every simulator's output must equal the output its
    simulated process produces in the replay. Together these are
    properties 1–4 of Lemma 26 and the correctness argument of
    Lemma 27, checked computationally on a concrete execution.

    A run with a restart ([Ev_restart] among its fault events) is
    refused with one error naming the simulator and the restart: the
    restarted simulator numbers its serials from 1 again, and σ̄ has no
    process that starts over. So is a run that did not complete. *)

type stats = {
  n_lin_items : int;  (** linearized M.Scans + M.Updates *)
  n_revisions : int;  (** ζ insertions *)
  n_hidden_steps : int;  (** total steps inside ζ's *)
  n_final_steps : int;  (** steps inside appended β·ξ tails *)
  n_sim_steps : int;  (** total steps of the simulated execution σ̄ *)
}

type report = { ok : bool; errors : string list; stats : stats }

val pp_report : Format.formatter -> report -> unit

val check : Harness.spec -> Harness.result -> report
