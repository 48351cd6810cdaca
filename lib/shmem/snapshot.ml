open Rsim_value

type t = Value.t array
(* Invariant: never mutated after creation; [update] copies. The arrays
   are small (m components), so copy-on-write is cheap and keeps the
   structure persistent. *)

let create ~m =
  if m <= 0 then invalid_arg "Snapshot.create: m must be positive";
  Array.make m Value.Bot

let update t j v =
  if j < 0 || j >= Array.length t then
    invalid_arg (Printf.sprintf "Snapshot.update: component %d out of range" j);
  let t' = Array.copy t in
  t'.(j) <- v;
  t'

let scan t = Array.copy t
let get t j = t.(j)
let of_view view = Array.copy view

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Value.equal a b
