(** Theorem 35: nondeterministic solo termination ⇒ obstruction-freedom.

    [convert] turns a nondeterministic solo-terminating protocol into a
    {e deterministic} protocol over the same m-component object by fixing
    the transition relation: when the observed response [a] equals the
    response a solo run would get (the process "is alone as far as it can
    tell"), [δ'(s, a)] is the first successor state lying on a shortest
    solo path; otherwise it is the first successor in the state order.
    Every execution of the converted protocol is an execution of the
    original (δ' ⊆ δ), and along any solo run the shortest-solo-path
    length decreases by one per step, so the converted protocol is
    obstruction-free. *)

open Rsim_value

type t

(** [convert nd ~cap ~input]: [cap] bounds each solo-path search (nodes
    explored); it must exceed the protocol's longest shortest-solo-path.
    The converted process starts in [nd.init input] with the initial
    expected contents. *)
val convert : Ndproto.t -> cap:int -> input:Value.t -> t

val nd : t -> Ndproto.t
val expected : t -> Value.t array

(** The deterministic process's next step, or its output. *)
val poised : t -> [ `Step of Ndproto.step | `Output of Value.t ]

(** Apply δ' for the observed [response] of the poised step. Raises
    [Invalid_argument] on a final state. *)
val advance : t -> response:Value.t -> t

(** Length of the shortest solo path from the current composite state
    ([Some 0] iff final); the quantity Theorem 35's proof shows is
    strictly decreasing along solo runs. *)
val solo_distance : t -> int option
