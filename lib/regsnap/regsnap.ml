open Rsim_value

module Ops = struct
  type op = Read of int | Write of int * Value.t
  type res = Got of Value.t | Ack
end

type cell = { value : Value.t; seq : int; view : Value.t array }

let bot_cell = { value = Value.Bot; seq = 0; view = [||] }

type hop =
  | Update_op of { proc : int; value : Value.t; inv : int; ret : int; n_ops : int }
  | Scan_op of {
      proc : int;
      view : Value.t array;
      inv : int;
      ret : int;
      borrowed : bool;
      n_ops : int;  (* this process's own register steps *)
    }

module Prog = Rsim_runtime.Prog.Make (struct
  include Ops

  type note = hop
end)

type t = {
  regs : cell array;  (* register i written only by process i *)
  mutable rev_history : hop list;
}

let create ~f =
  if f <= 0 then invalid_arg "Regsnap.create: f must be positive";
  { regs = Array.make f bot_cell; rev_history = [] }

(* Registers hold [cell]s, but operations carry [Value.t]: a cell is
   encoded as Pair (value, Pair (Int seq, List view)). *)
let encode c =
  Value.Pair (c.value, Value.Pair (Value.Int c.seq, Value.List (Array.to_list c.view)))

let decode v =
  match v with
  | Value.Bot -> bot_cell
  | Value.Pair (value, Value.Pair (Value.Int seq, Value.List view)) ->
    { value; seq; view = Array.of_list view }
  | _ -> failwith "Regsnap.decode: malformed register contents"

let apply t ~pid (op : Ops.op) : Ops.res =
  match op with
  | Ops.Read i -> Ops.Got (encode t.regs.(i))
  | Ops.Write (i, v) ->
    if i <> pid then failwith "Regsnap: single-writer violation";
    t.regs.(i) <- decode v;
    Ops.Ack

let record t hop = t.rev_history <- hop :: t.rev_history
let history t = List.rev t.rev_history
let scan_step_bound ~f = (f + 2) * f

open Prog

(* Register [i]: its cell and the read's trace index. *)
let read i =
  Op
    ( Ops.Read i,
      fun r idx ->
        match r with Ops.Got v -> Return (decode v, idx) | Ops.Ack -> assert false )

(* One collect: registers 0 to f-1 in order, and the last read's index. *)
let collect ~f =
  let rec go i acc =
    let* c, idx = read i in
    if i = f - 1 then return (Array.of_list (List.rev (c :: acc)), idx)
    else go (i + 1) (c :: acc)
  in
  go 0 []

let values_of collect_result = Array.map (fun c -> c.value) collect_result

let same_seqs a b =
  Array.for_all2 (fun (ca : cell) cb -> ca.seq = cb.seq) a b

(* The AADGMS scan: the view, whether it was borrowed, the register steps
   taken and the last one's index. [moved] marks the processes seen
   moving once; it is copied, never mutated, so the program stays
   persistent. *)
let scan_inner ~f =
  let rec loop c1 moved steps =
    let* c2, last = collect ~f in
    let steps = steps + f in
    if same_seqs c1 c2 then return (values_of c2, false, steps, last)
    else begin
      let moved' = Array.copy moved in
      let borrowed = ref None in
      Array.iteri
        (fun i (c1i : cell) ->
          if c1i.seq <> c2.(i).seq then
            if moved.(i) then begin
              (* i completed an entire update — and so an embedded scan —
                 inside our interval: borrow its view. *)
              if !borrowed = None then borrowed := Some c2.(i).view
            end
            else moved'.(i) <- true)
        c1;
      match !borrowed with
      | Some view -> return (Array.copy view, true, steps, last)
      | None -> loop c2 moved' steps
    end
  in
  let* c1, _ = collect ~f in
  loop c1 (Array.make f false) f

let scan ~f ~me ~now =
  let* view, borrowed, n_ops, last = scan_inner ~f in
  let ret = last + 1 in
  let* () = emit (Scan_op { proc = me; view; inv = now; ret; borrowed; n_ops }) in
  return (view, ret)

let update ~f ~me ~now v =
  let* view, _, scan_ops, _ = scan_inner ~f in
  let* old, _ = read me in
  let* _, idx =
    op (Ops.Write (me, encode { value = v; seq = old.seq + 1; view }))
  in
  let ret = idx + 1 in
  let* () =
    emit (Update_op { proc = me; value = v; inv = now; ret; n_ops = scan_ops + 2 })
  in
  return ret
