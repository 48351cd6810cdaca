(** The step-complexity bounds of §4.5 (Lemmas 29–31).

    [a m r] is the recurrence bounding the number of M.Block-Updates a
    covering simulator applies inside one call to [Construct(r)] when all
    its Block-Updates are atomic:

    {[ a(1) = 0
       a(r) = (C(m, r-1) + 1) · a(r-1) + C(m, r-1) ]}

    [b m i] bounds the total number of M.Block-Updates applied by the
    i-th covering simulator (1-based; the paper's q_i):

    {[ b(1) = a(m)
       b(i) = (a(m-1) + 1) · Σ_{j<i} b(j) + (m+1)·a(m-1) + m ]}

    All arithmetic saturates at [max_int / 2] rather than overflowing;
    [is_saturated] detects that. The closed-form sanity bounds
    [a(r) ≤ 2^{m(r-1)}] and [b(i) ≤ 2^{i·m·(m-1)} · const] are checked in
    tests. *)

(** [a ~m r]; raises [Invalid_argument] unless [1 <= r <= m]. *)
val a : m:int -> int -> int

(** [b ~m i] for the i-th covering simulator, [i >= 1]. *)
val b : m:int -> int -> int

(** Lemma 31: an all-covering simulation of [f] simulators takes at most
    [(2f+7)·b(f) + 3] steps per simulator on the single-writer
    snapshot. *)
val step_bound : f:int -> m:int -> int

(** Upper bound [2^{f·m²}] from Theorem 21's statement (saturating). *)
val two_pow_fm2 : f:int -> m:int -> int

val is_saturated : int -> bool
