(** Per-simulator journal of simulation events.

    Each simulator records the M-operations it applies, the revisions of
    its simulated processes' pasts, and its final locally-simulated
    steps, by emitting {!Entry} notes from its program; the harness files
    them into one journal per simulator. The journal, together with the augmented snapshot's own log
    and trace, lets {!Analysis} reconstruct the simulated execution of
    Lemma 26 and replay it against the protocol. *)

open Rsim_value

(** A locally simulated ("hidden") step of a simulated process. *)
type zeta_step =
  | Zscan of Value.t array  (** a scan and the view it returned *)
  | Zupdate of int * Value.t

type event =
  | Jscan of { serial : int; view : Value.t array }
      (** an applied M.Scan; simulates a scan by this simulator's first
          process *)
  | Jbu of { serial : int; updates : (int * Value.t) list; atomic : bool }
      (** an applied M.Block-Update; its g-th update simulates an update
          by this simulator's g-th process *)
  | Jrevise of {
      after_serial : int;  (** the serial of the M.Scan δ it follows *)
      proc : int;  (** 0-based index within this simulator's processes *)
      source_serial : int;  (** serial of the atomic Jbu whose view was used *)
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

(** A journal event of simulator [sim], as its program emits it. Serials
    count the simulator's completed M-operations from 1. *)
type Rsim_augmented.Aug.note += Entry of { sim : int; event : event }

type t

val create : unit -> t
val push : t -> event -> unit

(** Events in the order they were recorded. *)
val events : t -> event list
