open Rsim_value

type t =
  | Round_robin of int  (** the last pid scheduled, [-1] at first *)
  | Solo of int
  | Script of int list
  | Drawn of { g : Prng.t; n : int; pos : int; len : int }
      (** the script of [g]'s draws [pos .. len - 1] below [n] *)
  | Random of { start : Prng.t; pos : int }
      (** picks with [start]'s draw [pos], then [pos + 1], ... *)
  | Among of { procs : int list; start : Prng.t; pos : int }
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

let drawn g ~n ~len =
  if len > 0 && n <= 0 then invalid_arg "Schedule.drawn: n must be positive";
  Drawn { g; n; pos = 0; len }

let random ~seed = Random { start = Prng.make seed; pos = 0 }
let among ~procs ~seed = Among { procs; start = Prng.make seed; pos = 0 }

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

(* [List.mem] on pids, without the polymorphic compare. *)
let rec mem (pid : int) = function
  | [] -> false
  | p :: rest -> p = pid || mem pid rest

(* The eligible pids of [live]: those in [procs]. [among] counts them and
   indexes the [k]-th in place, as [Prng.choose] would pick from the
   filtered list. *)
let rec count_in procs acc = function
  | [] -> acc
  | p :: rest -> count_in procs (if mem p procs then acc + 1 else acc) rest

let rec nth_in procs k = function
  | [] -> invalid_arg "Schedule.nth_in"
  | p :: rest ->
    if not (mem p procs) then nth_in procs k rest
    else if k = 0 then p
    else nth_in procs (k - 1) rest

(* The first pid of [live] strictly greater than [last], else the first. *)
let rec after last live = function
  | [] -> List.hd live
  | p :: rest -> if p > last then p else after last live rest

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
  | Solo pid -> if mem pid live then Some (pid, t) else None
  | Script pids -> script_step live pids
  | Drawn { g; n; pos; len } -> drawn_step live g n len pos
  | Random { start; pos } ->
    let pid = List.nth live (Prng.int_at start pos (List.length live)) in
    Some (pid, Random { start; pos = pos + 1 })
  | Among { procs; start; pos } -> (
    match count_in procs 0 live with
    | 0 -> None
    | count ->
      let pid = nth_in procs (Prng.int_at start pos count) live in
      Some (pid, Among { procs; start; pos = pos + 1 }))
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
    | Some pid when mem pid live -> Some (pid, Fn { f; step = k + 1 })
    | Some _ | None -> None)

(* A script skips the entries that are not live. *)
and script_step live = function
  | [] -> None
  | pid :: rest ->
    if mem pid live then Some (pid, Script rest) else script_step live rest

(* [drawn]'s script, each entry drawn when the decision reaches it. *)
and drawn_step live g n len pos =
  if pos >= len then None
  else
    let pid = Prng.int_at g pos n in
    if mem pid live then Some (pid, Drawn { g; n; pos = pos + 1; len })
    else drawn_step live g n len (pos + 1)

let next t ~live = if live = [] then None else step t live
