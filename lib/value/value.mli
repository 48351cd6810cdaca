(** Universal values stored in simulated shared memory.

    Every object of the simulated system (registers, snapshot components,
    max-registers, ...) holds a {!t}. Protocol states embed {!t} values
    freely. [Bot] is the initial value of every component ("the" ⊥ of the
    paper); it is distinct from every written value. *)

type t =
  | Bot  (** ⊥, the initial register/component value *)
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list

val equal : t -> t -> bool

(** Total order; used for max-registers, tie-breaking, and deterministic
    iteration over value sets. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val show : t -> string

val is_bot : t -> bool

(** [int_exn v] projects an [Int]; raises [Invalid_argument] otherwise.
    Same for [pair_exn]. *)
val int_exn : t -> int

val pair_exn : t -> t * t

(** Numeric view: [Int n] as [float n], [Float f] as [f]. *)
val as_float_exn : t -> float

val max_value : t -> t -> t
val min_value : t -> t -> t

(** Distinct non-[Bot] values in a list, sorted, deduplicated. *)
val distinct : t list -> t list
