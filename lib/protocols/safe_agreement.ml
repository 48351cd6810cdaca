open Rsim_value

module Ops = struct
  type op = Sa_scan | Sa_write of Value.t
  type res = Sa_view of Value.t array | Sa_ack
end

type note = Read of { proc : int; value : Value.t option }

module Prog = Rsim_runtime.Prog.Make (struct
  include Ops

  type nonrec note = note
end)

(* Component i holds (level, value) for process i, encoded as a pair;
   Bot = (0, Bot). *)
type t = { f : int; mutable cells : Value.t array }

let create ~f =
  if f <= 0 then invalid_arg "Safe_agreement.create: f must be positive";
  { f; cells = Array.make f Value.Bot }

let apply t ~pid (op : Ops.op) : Ops.res =
  match op with
  | Ops.Sa_scan -> Ops.Sa_view (Array.copy t.cells)
  | Ops.Sa_write v ->
    let cells = Array.copy t.cells in
    cells.(pid) <- v;
    t.cells <- cells;
    Ops.Sa_ack

let decode cell =
  match cell with
  | Value.Bot -> (0, Value.Bot)
  | Value.Pair (Value.Int level, v) -> (level, v)
  | _ -> failwith "Safe_agreement: malformed cell"

let encode level v = Value.Pair (Value.Int level, v)

open Prog

let sa_scan =
  Op
    ( Ops.Sa_scan,
      fun r _ ->
        match r with
        | Ops.Sa_view view -> Return (Array.map decode view)
        | Ops.Sa_ack -> assert false )

let sa_write v = Op (Ops.Sa_write v, fun _ _ -> Return ())

let propose v =
  (* level 1: entering the unsafe window *)
  let* () = sa_write (encode 1 v) in
  let* view = sa_scan in
  if Array.exists (fun (level, _) -> level = 2) view then
    (* someone already settled: retreat *)
    sa_write (encode 0 v)
  else sa_write (encode 2 v)

let read ~me ~max_spins =
  let rec spin k =
    if k = 0 then return None
    else
      let* view = sa_scan in
      if Array.exists (fun (level, _) -> level = 1) view then spin (k - 1)
      else
        (* no one unsafe: the settled set is now stable enough to read *)
        let settled =
          Array.to_list view |> List.filter (fun (level, _) -> level = 2)
        in
        match settled with
        | (_, v) :: _ -> return (Some v)
        | [] -> spin (k - 1) (* nobody proposed yet *)
  in
  let* value = spin max_spins in
  let* () = emit (Read { proc = me; value }) in
  return value
