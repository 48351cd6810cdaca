open Rsim_value

type action =
  | Crash
  | Restart of { delay : int }
  | Drop
  | Corrupt of { seed : int }

type spec = { pid : int; at_op : int; action : action }

(* ---------------------------------------------------------------- *)
(* Spec grammar                                                      *)
(* ---------------------------------------------------------------- *)

let spec_to_string { pid; at_op; action } =
  match action with
  | Crash -> Printf.sprintf "crash@%d:%d" pid at_op
  | Restart { delay } -> Printf.sprintf "restart@%d:%d+%d" pid at_op delay
  | Drop -> Printf.sprintf "drop@%d:%d" pid at_op
  | Corrupt { seed } -> Printf.sprintf "corrupt@%d:%d#%d" pid at_op seed

let to_string = function
  | [] -> "none"
  | specs -> String.concat "," (List.map spec_to_string specs)

let ( let* ) = Result.bind

let int_of s =
  match int_of_string_opt s with
  | Some k when k >= 0 -> Ok k
  | Some _ | None -> Error (Printf.sprintf "expected a non-negative integer, got %S" s)

(* kind@PID:AT[+DELAY|#SEED] *)
let spec_of_string s =
  let fail () = Error (Printf.sprintf "bad fault spec %S" s) in
  match String.index_opt s '@' with
  | None -> fail ()
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest ':' with
    | None -> fail ()
    | Some j ->
      let* pid = int_of (String.sub rest 0 j) in
      let loc = String.sub rest (j + 1) (String.length rest - j - 1) in
      let split c =
        match String.index_opt loc c with
        | None -> Error (Printf.sprintf "fault spec %S is missing '%c'" s c)
        | Some k ->
          let* a = int_of (String.sub loc 0 k) in
          let* b = int_of (String.sub loc (k + 1) (String.length loc - k - 1)) in
          Ok (a, b)
      in
      (match kind with
      | "crash" ->
        let* at_op = int_of loc in
        Ok { pid; at_op; action = Crash }
      | "restart" ->
        let* at_op, delay = split '+' in
        Ok { pid; at_op; action = Restart { delay } }
      | "drop" ->
        let* at_op = int_of loc in
        Ok { pid; at_op; action = Drop }
      | "corrupt" ->
        let* at_op, seed = split '#' in
        Ok { pid; at_op; action = Corrupt { seed } }
      | _ -> Error (Printf.sprintf "unknown fault kind %S in %S" kind s)))

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok []
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc part ->
           let* acc = acc in
           let* spec = spec_of_string part in
           Ok (spec :: acc))
         (Ok [])
    |> Result.map List.rev

(* ---------------------------------------------------------------- *)
(* Named seeded profiles                                             *)
(* ---------------------------------------------------------------- *)

let names = [ "crashy"; "restarting"; "chaos" ]

(* Each family is deterministic in (n_procs, seed). They only use the
   benign fault kinds (crash / restart) — the ones the
   non-blocking guarantees must survive — never drops or corruption. *)
let gen_family ~kinds ~n_procs ~seed =
  let g = ref (Prng.make (0x5fa17 + seed)) in
  let draw n =
    let k, g' = Prng.int !g n in
    g := g';
    k
  in
  List.filter_map
    (fun pid ->
      if draw 3 = 0 then None (* this process runs fault-free *)
      else
        let at_op = draw 8 in
        let action =
          match List.nth kinds (draw (List.length kinds)) with
          | `Crash -> Crash
          | `Restart -> Restart { delay = 1 + draw 6 }
        in
        Some { pid; at_op; action })
    (List.init n_procs Fun.id)

let named name ~n_procs ~seed =
  match name with
  | "crashy" -> Some (gen_family ~kinds:[ `Crash ] ~n_procs ~seed)
  | "restarting" -> Some (gen_family ~kinds:[ `Restart ] ~n_procs ~seed)
  | "chaos" -> Some (gen_family ~kinds:[ `Crash; `Restart ] ~n_procs ~seed)
  | _ -> None

let resolve ~n_procs ~seed s =
  match named (String.trim s) ~n_procs ~seed with
  | Some specs -> Ok specs
  | None -> (
    match of_string s with
    | Ok specs -> Ok specs
    | Error e ->
      Error
        (Printf.sprintf "%s (or use a named profile: %s)" e
           (String.concat ", " names)))

(* ---------------------------------------------------------------- *)
(* Compiling a profile into a control hook                           *)
(* ---------------------------------------------------------------- *)

type 'op adapter = {
  drop : 'op -> 'op option;
  corrupt : Prng.t -> 'op -> 'op option;
}

let null_adapter = { drop = (fun _ -> None); corrupt = (fun _ _ -> None) }

(* The [retry]-th spec from index [k] on, in profile order, that names
   [pid]'s [nth] operation, or -1. *)
let rec due specs ~pid ~nth retry k =
  if k = Array.length specs then -1
  else
    let s = specs.(k) in
    if s.pid <> pid || s.at_op <> nth then due specs ~pid ~nth retry (k + 1)
    else if retry = 0 then k
    else due specs ~pid ~nth (retry - 1) (k + 1)

let control ~adapter specs =
  let specs = Array.of_list specs in
  fun ~pid ~nth ~retry op : _ Rsim_runtime.Prog.directive ->
    let k = due specs ~pid ~nth retry 0 in
    if k < 0 then Rsim_runtime.Prog.Proceed
    else
      match specs.(k).action with
      | Crash -> Rsim_runtime.Prog.Crash
      | Restart { delay } -> Rsim_runtime.Prog.Crash_restart { delay }
      | Drop -> (
        match adapter.drop op with
        | Some op' -> Rsim_runtime.Prog.Replace op'
        | None -> Rsim_runtime.Prog.Proceed)
      | Corrupt { seed } -> (
        match adapter.corrupt (Prng.make seed) op with
        | Some op' -> Rsim_runtime.Prog.Replace op'
        | None -> Rsim_runtime.Prog.Proceed)
