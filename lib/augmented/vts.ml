type t = int array

let make ~counts ~me =
  let t = Array.copy counts in
  if me < 0 || me >= Array.length t then invalid_arg "Vts.make: me out of range";
  t.(me) <- t.(me) + 1;
  t

(* A top-level loop, so that a comparison allocates no closure. *)
let rec compare_from (a : t) (b : t) i =
  if i >= Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) =
  if Array.length a <> Array.length b then invalid_arg "Vts.compare: length mismatch";
  compare_from a b 0

let equal a b = compare a b = 0
let geq a b = compare a b >= 0
let to_array = Array.copy
let of_array = Array.copy

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))

let show t = Format.asprintf "%a" pp t
