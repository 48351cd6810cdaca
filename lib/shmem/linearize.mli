(** Linearizability checking for small concurrent histories.

    A history is a set of operation intervals, each with an invocation
    time, an optional response time (pending operations have none), and
    the observed response. [check] decides whether the history is
    linearizable with respect to a sequential specification, using the
    Wing–Gong search: repeatedly pick a "minimal" operation (one that no
    other operation completed before), apply it to the sequential state,
    and match its observed response. Pending operations may either take
    effect or be dropped.

    The search runs over bitmasks: the entries sit in an array, each
    entry's set of entries that must precede it (those that returned
    before it was invoked) is one int computed once, and the set still
    to place is one int. Candidates are tried in input order. The search
    is exponential in the worst case; it is intended for the short
    adversarial histories produced in tests and by the explorer, which
    searches only a history whose own linearization order fails its
    linear-time check. A history may hold at most [Sys.int_size] entries
    (63 on 64-bit hosts). *)

open Rsim_value

type 'op entry = {
  proc : int;
  op : 'op;
  inv : int;  (** invocation time *)
  ret : int option;  (** response time; [None] = pending *)
  res : Value.t option;  (** observed response, for complete operations *)
}

(** [apply] may raise to signal that an operation is not applicable in a
    state (a partial sequential spec, e.g. popping an empty stack): the
    search then cannot linearize the operation at that point. In
    particular a pending operation whose [apply] raises everywhere it
    could be placed must be dropped. *)
type ('st, 'op) spec = {
  init : 'st;
  apply : 'st -> 'op -> 'st * Value.t;
}

(** [entry ~proc ~op ~inv ~ret ~res] smart constructor; checks
    [inv < ret]. *)
val entry :
  proc:int -> op:'op -> inv:int -> ?ret:int -> ?res:Value.t -> unit -> 'op entry

(** Whether the history is linearizable w.r.t. the spec. Raises
    [Invalid_argument] if it has more than [Sys.int_size] entries. *)
val check : ('st, 'op) spec -> 'op entry list -> bool

(** A witness linearization order (the entries that took effect, in
    linearization order), if one exists: the first found when candidates
    are tried in input order, taking effect before being dropped. Raises
    [Invalid_argument] if the history has more than [Sys.int_size]
    entries. *)
val linearization : ('st, 'op) spec -> 'op entry list -> 'op entry list option
