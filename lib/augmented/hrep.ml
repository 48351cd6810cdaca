open Rsim_value

type triple = { comp : int; value : Value.t; ts : Vts.t }

type lrecord = { dest : int; index : int; payload : snap }

and component = {
  triples : triple list;
  lrecords : lrecord list;
  n_triples : int;
  n_bu : int;
  winners : triple option array;
}

and snap = component array

let empty_component =
  { triples = []; lrecords = []; n_triples = 0; n_bu = 0; winners = [||] }

let create ~f = Array.make f empty_component
let count_bu c = c.n_bu
let counts h = Array.map count_bu h

let append_triples c ts =
  match ts with
  | [] -> c
  | first :: rest ->
    (* Triples of one Block-Update share a timestamp and are appended
       together, so counting groups of equal adjacent timestamps counts
       Block-Updates. *)
    let rec bus prev n = function
      | [] -> n
      | t :: rest -> bus t.ts (if Vts.equal prev t.ts then n else n + 1) rest
    in
    let n_bu =
      match c.triples with
      | latest :: _ -> bus latest.ts c.n_bu ts
      | [] -> bus first.ts 1 rest
    in
    (* Get-View's winner per component of M: a later triple replaces the
       earlier winner only when its timestamp is strictly larger.
       Negative components never win (no view has them). *)
    let width =
      List.fold_left (fun w t -> max w (t.comp + 1)) (Array.length c.winners) ts
    in
    let winners = Array.make width None in
    Array.blit c.winners 0 winners 0 (Array.length c.winners);
    List.iter
      (fun t ->
        if t.comp >= 0 then
          match winners.(t.comp) with
          | Some w when Vts.compare t.ts w.ts <= 0 -> ()
          | Some _ | None -> winners.(t.comp) <- Some t)
      ts;
    {
      c with
      triples = List.rev_append ts c.triples;
      n_triples = c.n_triples + List.length ts;
      n_bu;
      winners;
    }

let append_lrecords c ls = { c with lrecords = List.rev_append ls c.lrecords }

let triple_equal a b =
  a.comp = b.comp && Value.equal a.value b.value && Vts.equal a.ts b.ts

(* Whether two lists are equal, element by element, stopping at the
   first tail they share. *)
let rec list_equal eq xs ys =
  xs == ys
  ||
  match (xs, ys) with
  | x :: xs', y :: ys' -> eq x y && list_equal eq xs' ys'
  | [], _ | _, [] -> false

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

(* Snapshots of one H share a component's triple list until that
   component gains a triple, and an append conses its batch onto the
   list it extends, so a later snapshot's list ends with an earlier
   one's: both tests stop at the shared tail, which is the whole list
   when nothing was appended. Unequal counts decide equality, and a
   list is a prefix of a longer one when the longer one, its newest
   triples dropped, equals it. Only lists built apart are walked. *)
let same_triples ca cb =
  ca.n_triples = cb.n_triples && list_equal triple_equal ca.triples cb.triples

let prefix_triples ca cb =
  ca.n_triples <= cb.n_triples
  && list_equal triple_equal ca.triples (drop (cb.n_triples - ca.n_triples) cb.triples)

let equal_triples a b =
  Array.length a = Array.length b && Array.for_all2 same_triples a b

let is_prefix a b = Array.length a = Array.length b && Array.for_all2 prefix_triples a b
let is_proper_prefix a b = is_prefix a b && not (equal_triples a b)

(* The winner over all of [h] is the first writer's winner among those
   holding the largest timestamp: writers are visited in order and a
   later one replaces the winner only with a strictly larger timestamp. *)
let get_view ~m h =
  let view = Array.make m Value.Bot in
  for j = 0 to m - 1 do
    let best = ref None in
    for i = 0 to Array.length h - 1 do
      let winners = h.(i).winners in
      if j < Array.length winners then
        match (winners.(j), !best) with
        | None, _ -> ()
        | Some t, Some b when Vts.compare t.ts b.ts <= 0 -> ()
        | (Some _ as w), (Some _ | None) -> best := w
    done;
    match !best with Some t -> view.(j) <- t.value | None -> ()
  done;
  view

let new_timestamp h ~me = Vts.make ~counts:(counts h) ~me

let read_l h ~writer ~reader ~index =
  let rec latest = function
    | [] -> None
    | l :: older ->
      if l.dest = reader && l.index = index then Some l.payload else latest older
  in
  latest h.(writer).lrecords
