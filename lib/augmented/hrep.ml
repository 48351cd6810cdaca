open Rsim_value

type triple = { comp : int; value : Value.t; ts : Vts.t }

type lrecord = { dest : int; index : int; payload : snap }

and component = { triples : triple list; lrecords : lrecord list }

and snap = component array

let empty_component = { triples = []; lrecords = [] }
let create ~f = Array.make f empty_component

let count_bu c =
  (* Triples of one Block-Update share a timestamp and are appended
     together, so counting groups of equal adjacent timestamps counts
     Block-Updates. *)
  let rec go ts n = function
    | [] -> n
    | t :: rest ->
      if Vts.equal ts t.ts then go ts n rest else go t.ts (n + 1) rest
  in
  match c.triples with [] -> 0 | t :: rest -> go t.ts 1 rest

let counts h = Array.map count_bu h

let append_triples c ts = { c with triples = c.triples @ ts }
let append_lrecords c ls = { c with lrecords = c.lrecords @ ls }

let triple_equal a b =
  a.comp = b.comp && Value.equal a.value b.value && Vts.equal a.ts b.ts

let rec list_is_prefix eq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' -> eq x y && list_is_prefix eq xs' ys'

let equal_triples a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ca cb ->
         List.length ca.triples = List.length cb.triples
         && List.for_all2 triple_equal ca.triples cb.triples)
       a b

let is_prefix a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun ca cb -> list_is_prefix triple_equal ca.triples cb.triples) a b

let is_proper_prefix a b = is_prefix a b && not (equal_triples a b)

let all_triples h =
  let acc = ref [] in
  Array.iteri (fun writer c -> List.iter (fun t -> acc := (writer, t) :: !acc) c.triples) h;
  List.rev !acc

let get_view ~m h =
  let view = Array.make m Value.Bot in
  (* [best.(c)] is the timestamp [view.(c)] came from, once [seen.(c)]. *)
  let seen = Array.make m false in
  let best = Array.make m (Vts.of_array [||]) in
  let rec walk = function
    | [] -> ()
    | t :: rest ->
      let c = t.comp in
      if c >= 0 && c < m && not (seen.(c) && Vts.geq best.(c) t.ts) then begin
        seen.(c) <- true;
        best.(c) <- t.ts;
        view.(c) <- t.value
      end;
      walk rest
  in
  for writer = 0 to Array.length h - 1 do
    walk h.(writer).triples
  done;
  view

let new_timestamp h ~me = Vts.make ~counts:(counts h) ~me

let read_l h ~writer ~reader ~index =
  let rec last found = function
    | [] -> found
    | l :: rest ->
      let found =
        if l.dest = reader && l.index = index then Some l.payload else found
      in
      last found rest
  in
  last None h.(writer).lrecords

let contains_ts h ts =
  List.exists (fun (_, t) -> Vts.equal t.ts ts) (all_triples h)
