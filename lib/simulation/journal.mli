(** Per-simulator journal of what a simulator did locally.

    The M-operations a simulator applies are recorded once, in the
    augmented snapshot's own log ({!Rsim_augmented.Aug.log}); a
    simulator's {e serial} [s] names its [s]-th M-operation there,
    counting from 1. The journal holds the rest: the revisions of its
    simulated processes' pasts, its final locally-simulated steps, and
    the outputs it adopted. Each simulator emits these as {!Entry} notes
    from its program; the harness files them into one journal per
    simulator, a list of events in the order recorded
    ({!Harness.result}). Together with the log and the trace index, the
    journal lets {!Analysis} reconstruct the simulated execution of
    Lemma 26 and replay it against the protocol. *)

open Rsim_value

(** A locally simulated ("hidden") step of a simulated process. *)
type zeta_step =
  | Zscan of Value.t array  (** a scan and the view it returned *)
  | Zupdate of int * Value.t

type event =
  | Jrevise of {
      after_serial : int;  (** the serial of the M.Scan δ it follows *)
      proc : int;  (** 0-based index within this simulator's processes *)
      source_serial : int;
          (** the serial of the atomic M.Block-Update whose view was used *)
      zeta : zeta_step list;  (** the inserted hidden execution ζ *)
    }
  | Jfinal of {
      beta : (int * Value.t) list;  (** the constructed m-component block *)
      xi : zeta_step list;  (** first process's terminating solo run *)
      output : Value.t;
    }
  | Jdecided of { proc : int; value : Value.t }
      (** a simulated process output during construction; the simulator
          adopts its value *)

(** A journal event of simulator [sim], as its program emits it. *)
type Rsim_augmented.Aug.note += Entry of { sim : int; event : event }
