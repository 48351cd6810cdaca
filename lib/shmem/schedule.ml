open Rsim_value

type t =
  | Round_robin of int  (** the last pid scheduled, [-1] at first *)
  | Solo of int
  | Script of int list
  | Random of Prng.t
  | Among of { procs : int list; rng : Prng.t }
  | Phased of { left : int; prefix : t; suffix : t }
      (** [left] > 0 prefix steps to go *)
  | With_crashes of {
      pids : int array;  (** distinct *)
      limits : int array;  (** [limits.(i)] caps the steps of [pids.(i)] *)
      taken : int array;
          (** [taken.(i)]: the steps [pids.(i)] took; copied, never
              mutated, when it changes *)
      inner : t;
    }
  | Fn of { f : step:int -> live:int list -> int option; step : int }

let round_robin = Round_robin (-1)
let solo pid = Solo pid
let script pids = Script pids
let random ~seed = Random (Prng.make seed)
let among ~procs ~seed = Among { procs; rng = Prng.make seed }

let phased ~prefix_len ~prefix ~suffix =
  if prefix_len <= 0 then suffix
  else Phased { left = prefix_len; prefix; suffix }

let with_crashes crashes inner =
  (* A pid's first entry wins, as a lookup of the list would. *)
  let firsts =
    List.fold_left
      (fun acc (pid, limit) ->
        if List.mem_assoc pid acc then acc else (pid, limit) :: acc)
      [] crashes
  in
  With_crashes
    {
      pids = Array.of_list (List.map fst firsts);
      limits = Array.of_list (List.map snd firsts);
      taken = Array.make (List.length firsts) 0;
      inner;
    }

let fn f = Fn { f; step = 0 }

(* A uniform pick from [live], as [Prng.choose] draws it. *)
let choose rng live =
  let k, rng' = Prng.int rng (List.length live) in
  (List.nth live k, rng')

(* The first pid of [live] strictly greater than [last], else the first. *)
let rec after last live = function
  | [] -> List.hd live
  | p :: rest -> if p > last then p else after last live rest

let rec all_in procs = function
  | [] -> true
  | p :: rest -> List.mem p procs && all_in procs rest

let rec slot pids pid i =
  if i = Array.length pids then -1
  else if pids.(i) = pid then i
  else slot pids pid (i + 1)

let spent pids limits taken pid =
  let i = slot pids pid 0 in
  i >= 0 && taken.(i) >= limits.(i)

let rec any_spent pids limits taken = function
  | [] -> false
  | p :: rest -> spent pids limits taken p || any_spent pids limits taken rest

(* [live] is non-empty and sorted ascending. *)
let rec step t live =
  match t with
  | Round_robin last ->
    let pid = after last live live in
    Some (pid, Round_robin pid)
  | Solo pid -> if List.mem pid live then Some (pid, t) else None
  | Script pids -> script_step live pids
  | Random rng ->
    let pid, rng' = choose rng live in
    Some (pid, Random rng')
  | Among { procs; rng } -> (
    let eligible =
      if all_in procs live then live
      else List.filter (fun p -> List.mem p procs) live
    in
    match eligible with
    | [] -> None
    | _ :: _ ->
      let pid, rng' = choose rng eligible in
      Some (pid, Among { procs; rng = rng' }))
  | Phased { left; prefix; suffix } -> (
    match step prefix live with
    | Some (pid, prefix') ->
      let rest =
        if left <= 1 then suffix
        else Phased { left = left - 1; prefix = prefix'; suffix }
      in
      Some (pid, rest)
    | None -> step suffix live)
  | With_crashes ({ pids; limits; taken; inner } as c) -> (
    let alive =
      if any_spent pids limits taken live then
        List.filter (fun p -> not (spent pids limits taken p)) live
      else live
    in
    match alive with
    | [] -> None
    | _ :: _ -> (
      match step inner alive with
      | None -> None
      | Some (pid, inner') ->
        let taken =
          match slot pids pid 0 with
          | -1 -> taken
          | i ->
            let taken = Array.copy taken in
            taken.(i) <- taken.(i) + 1;
            taken
        in
        Some (pid, With_crashes { c with taken; inner = inner' })))
  | Fn { f; step = k } -> (
    match f ~step:k ~live with
    | Some pid when List.mem pid live -> Some (pid, Fn { f; step = k + 1 })
    | Some _ | None -> None)

(* A script skips the entries that are not live. *)
and script_step live = function
  | [] -> None
  | pid :: rest ->
    if List.mem pid live then Some (pid, Script rest) else script_step live rest

let next t ~live = if live = [] then None else step t live
