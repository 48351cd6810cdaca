(** Representation of the single-writer snapshot [H] of §3.2.

    Component [i] of [H] belongs to real process [q_i] and holds:
    - {b update triples} [(j, v, t)]: "q_i's Block-Update with timestamp
      [t] set component [j] of M to [v]" (appended by Line 4 of
      Algorithm 4);
    - {b L-records} [(dest, b, h)]: the representation of the unbounded
      helping registers [L_{i,dest}[b] := h] (appended by the helping
      writes of Algorithms 3 and 4). An L-record's payload is itself a
      scan result of [H].

    The prefix relation, the equality used by [Scan]'s
    "two consecutive identical results" test, and the counts [#h_j] are
    all over update triples only: L-records are helping metadata, not
    Block-Updates. (Otherwise [Scan]'s own helping writes would prevent
    its termination, contradicting Lemma 2, and Theorem 20's proof —
    "only possible if a new triple is appended by Line 4" — would fail.) *)

open Rsim_value

type triple = { comp : int; value : Value.t; ts : Vts.t }

type lrecord = {
  dest : int;  (** the reader this record helps *)
  index : int;  (** the [b] in [L_{i,dest}[b]] *)
  payload : snap;  (** the scan result written *)
}

and component = private {
  triples : triple list;  (** latest first: the reverse of append order *)
  lrecords : lrecord list;  (** latest first: the reverse of append order *)
  n_triples : int;  (** cached length of [triples] *)
  n_bu : int;  (** cached {!count_bu} *)
  winners : triple option array;
      (** cached Get-View winner of this component alone, per component
          of M: entry [j] is the first triple for [j] holding the
          largest timestamp, or [None]; the array ends at the largest
          component written *)
}
(** A component is built only by {!empty_component} and the two appends,
    which keep the caches in step with the lists. *)

and snap = component array
(** The result of an atomic scan of [H]: one component per real process.
    Every snapshot of one [H] shares, per component, the triple list it
    held when taken until that component gains a triple: an L-record
    append copies the record but keeps the list. Since lists grow at
    their head, a later snapshot's lists end with an earlier one's. *)

(** {2 Costs}

    An append pays for its batch, not for the component: it conses the
    batch onto the list it extends, which the earlier snapshots keep
    sharing, and [append_triples] also copies the winners (one entry
    per component of M up to the largest written). Everything else
    reads the caches: [count_bu] is O(1), [counts] and [new_timestamp]
    O(f), [get_view] O(f·m). [equal_triples] and [is_prefix] walk a
    pair of triple lists only down to the tail they share: for two
    snapshots of one [H] that is O(1) per component once [is_prefix]
    has dropped the longer list's newest triples, and unequal lengths
    decide equality at once. Lists built apart are walked. [read_l]
    walks the writer's L-records from the latest and stops at the first
    match. *)

val empty_component : component

(** A fresh [H] with [f] empty components. *)
val create : f:int -> snap

(** [#h_i]: the number of Block-Updates recorded in a component = the
    number of groups of equal adjacent timestamps among its triples. *)
val count_bu : component -> int

(** [counts h] is the vector [#h_1 .. #h_f]. *)
val counts : snap -> int array

(** Append the triples of one Block-Update (all sharing one timestamp). *)
val append_triples : component -> triple list -> component

val append_lrecords : component -> lrecord list -> component

(** Equality over update triples only (the [until h = h'] test). A
    shared list or tail is taken as equal to itself, which the walk
    agrees with for every value but a NaN float. *)
val equal_triples : snap -> snap -> bool

(** [is_prefix h h']: every component's triple list of [h] is a prefix of
    the corresponding list of [h'] (Observation 1's relation). *)
val is_prefix : snap -> snap -> bool

(** Prefix and differing in at least one component. *)
val is_proper_prefix : snap -> snap -> bool

(** [Get-View] (Algorithm 2): for each of the [m] components of M, the
    value of the triple with the lexicographically largest timestamp, or
    ⊥ if none. Ties go to the first such triple in writer order, then
    in append order. *)
val get_view : m:int -> snap -> Value.t array

(** [New-Timestamp] (Algorithm 1) for process [me]. *)
val new_timestamp : snap -> me:int -> Vts.t

(** [read_l h ~writer ~reader ~index] is the current value of
    [L_{writer,reader}[index]] as seen in [h]: the payload of the latest
    matching L-record in component [writer], or [None] (⊥). *)
val read_l : snap -> writer:int -> reader:int -> index:int -> snap option
