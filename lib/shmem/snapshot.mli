(** Immutable m-component multi-writer snapshot object.

    The shared object of the simulated system (§2.1). [update] is
    persistent: it returns a new snapshot, so configurations can be
    copied, compared, and branched freely by the execution engine and by
    the covering simulators' local simulations. *)

open Rsim_value

type t

(** [create ~m] is a snapshot with [m] components, all [Value.Bot]. *)
val create : m:int -> t


(** [update t j v] sets component [j] (0-based) to [v].
    Raises [Invalid_argument] if [j] is out of range. *)
val update : t -> int -> Value.t -> t

(** [scan t] is a fresh array of the current component values. *)
val scan : t -> Value.t array

(** [get t j] is component [j]. *)
val get : t -> int -> Value.t

(** [of_view view] builds a snapshot whose contents equal [view]. Used by
    covering simulators to locally simulate against a returned view. *)
val of_view : Value.t array -> t

val equal : t -> t -> bool
