(** Deterministic pseudo-random number generator.

    All randomized schedulers and tests in this repository draw from this
    PRNG rather than [Stdlib.Random], so that every execution is exactly
    reproducible from a seed. The generator is a 64-bit SplitMix64, which
    has good statistical quality for test-case generation. It is a
    persistent value: a draw returns the next generator. *)

type t

val make : int -> t

(** [int t bound] returns [(k, t')] with [0 <= k < bound].
    Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int * t

(** [int_at t k bound] is the [k]-th draw of [t]'s stream, counting from
    0: what [int] returns after [k] earlier draws ([int], [bool] or
    [float]) from [t], each with the generator the previous one
    returned. It allocates nothing, so a consumer can keep [t] and a
    position instead of threading a generator. Raises
    [Invalid_argument] if [bound <= 0]. *)
val int_at : t -> int -> int -> int

val bool : t -> bool * t

(** Uniform float in [0, 1). *)
val float : t -> float * t

(** [choose t xs] picks a uniform element of [xs]. Raises on empty list. *)
val choose : t -> 'a list -> 'a * t


(** [shuffle t xs] is a uniform permutation of [xs]. *)
val shuffle : t -> 'a list -> 'a list * t
