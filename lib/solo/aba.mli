(** ABA-freedom (§5.3, Corollary 36).

    A protocol is ABA-free if no component ever returns to an earlier
    value after holding a different one. Registers can be made ABA-free
    by tagging every write with the writer's identity and a strictly
    increasing sequence number (ignored by reads); max-registers and
    fetch-and-increment objects are ABA-free by construction.

    This module detects ABA patterns in executed runs: it replays a
    {!Mrun} trace to obtain each component's value history and searches
    it for a [v … w … v] pattern ([w ≠ v]). *)

open Rsim_value

(** Whether a value sequence exhibits ABA. *)
val has_aba : Value.t list -> bool

(** [check run] is [Ok ()] if no component of the finished run exhibits
    ABA, [Error msg] naming the first offending component otherwise. *)
val check : Mrun.config -> (unit, string) result
