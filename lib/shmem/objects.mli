(** Sequential specifications of the base objects of §5.

    Used by the nondeterministic-protocol machinery (§5.2–§5.3): an
    m-component object supports [Scan] plus per-component operations
    drawn from one of these kinds. Each kind is given by a pure
    transition function on component values. *)

open Rsim_value

type kind =
  | Register  (** write / read *)
  | Max_register  (** write-max / read *)
  | Fetch_and_increment
  | Swap
  | Compare_and_swap

type op =
  | Read
  | Write of Value.t
  | Write_max of Value.t  (** keeps the lexicographic maximum *)
  | Fetch_inc  (** adds 1 to an [Int] component, returns the old value *)
  | Swap_write of Value.t  (** writes, returns the old value *)
  | Cas of { expected : Value.t; desired : Value.t }
      (** returns [Bool true] and installs [desired] iff current =
          [expected] *)

val op_name : op -> string


(** [apply kind v op] is [Ok (v', response)]: the new component value and
    the operation's response. [Error] if the kind does not support [op]
    or the value has the wrong shape (e.g. [Fetch_inc] on a non-[Int]). *)
val apply : kind -> Value.t -> op -> (Value.t * Value.t, string) result

(** Initial value for a component of this kind ([Int 0] for
    fetch-and-increment, ⊥ otherwise). *)
val initial : kind -> Value.t

(** Whether a history of this kind's operations can exhibit ABA:
    registers and swap/CAS can revisit old values; max-registers and
    fetch-and-increment cannot (§5.3). *)
val can_aba : kind -> bool
