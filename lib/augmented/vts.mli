(** Vector timestamps (§3.2, Algorithm 1).

    A timestamp is an [f]-component vector of non-negative integers,
    ordered lexicographically. Process [i] generates a new timestamp from
    a scan result [h] by taking [t_j = #h_j] for [j ≠ i] and
    [t_i = #h_i + 1], where [#h_j] counts the Block-Updates recorded in
    component [j]. Corollary 8: a timestamp generated from [h] is
    lexicographically larger than every timestamp contained in [h];
    Lemma 9: all Block-Update timestamps are distinct. *)

type t

(** [make ~counts ~me] implements [New-Timestamp]: [counts] is the vector
    [#h_1 .. #h_f]; the [me] entry is incremented. *)
val make : counts:int array -> me:int -> t

(** Lexicographic order. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [t' ≽ t] (lexicographically at least as large). *)
val geq : t -> t -> bool

val to_array : t -> int array
val of_array : int array -> t
val show : t -> string
