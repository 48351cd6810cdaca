open Rsim_value

type 'op entry = {
  proc : int;
  op : 'op;
  inv : int;
  ret : int option;
  res : Value.t option;
}

type ('st, 'op) spec = {
  init : 'st;
  apply : 'st -> 'op -> 'st * Value.t;
}

let entry ~proc ~op ~inv ?ret ?res () =
  (match ret with
  | Some r when r <= inv -> invalid_arg "Linearize.entry: ret must be > inv"
  | _ -> ());
  { proc; op; inv; ret; res }

(* The search runs over bitmasks: bit [i] of a set stands for
   [entries.(i)]. [before.(i)] is the set of entries that completed
   before entry [i] was invoked, so [i] may be linearized (or, pending,
   dropped) next iff [before.(i) land remaining = 0]. Candidates are
   tried in index order, which is the order of the input list. *)
let linearization spec entries =
  let es = Array.of_list entries in
  let n = Array.length es in
  if n > Sys.int_size then
    invalid_arg "Linearize.linearization: more entries than an int has bits";
  let before =
    Array.map
      (fun e ->
        let mask = ref 0 in
        Array.iteri
          (fun j e' ->
            match e'.ret with
            | Some r when r <= e.inv && e' != e -> mask := !mask lor (1 lsl j)
            | Some _ | None -> ())
          es;
        !mask)
      es
  in
  let candidate remaining i =
    remaining land (1 lsl i) <> 0 && before.(i) land remaining = 0
  in
  let rec search st remaining acc =
    if remaining = 0 then Some (List.rev acc)
    else
      match take st remaining acc 0 with
      | Some _ as r -> r
      | None -> drop st remaining acc 0
  (* Linearize the first candidate from [i] on that leads to a witness. *)
  and take st remaining acc i =
    if i = n then None
    else if not (candidate remaining i) then take st remaining acc (i + 1)
    else
      let e = es.(i) in
      (* A raising [apply] means the operation is not applicable in this
         state; the search must linearize it elsewhere (or, if pending,
         drop it). *)
      let r =
        match spec.apply st e.op with
        | exception _ -> None
        | st', res ->
          let response_ok =
            match (e.ret, e.res) with
            | Some _, Some observed -> Value.equal observed res
            | Some _, None -> true
            | None, _ -> true (* pending: any response is acceptable *)
          in
          if response_ok then
            search st' (remaining land lnot (1 lsl i)) (e :: acc)
          else None
      in
      match r with Some _ -> r | None -> take st remaining acc (i + 1)
  (* Drop the first pending candidate from [i] on that leads to a witness:
     pending operations may never have taken effect. *)
  and drop st remaining acc i =
    if i = n then None
    else
      let r =
        match es.(i).ret with
        | None when candidate remaining i ->
          search st (remaining land lnot (1 lsl i)) acc
        | Some _ | None -> None
      in
      match r with Some _ -> r | None -> drop st remaining acc (i + 1)
  in
  search spec.init ((1 lsl n) - 1) []

let check spec entries = Option.is_some (linearization spec entries)
