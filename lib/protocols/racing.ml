open Rsim_value
open Rsim_shmem

type phase =
  | To_scan
  | To_write of int  (** register (component index) to write next *)
  | Done of Value.t

type state = { r : int; v : Value.t; phase : phase }

let encode r v = Value.Pair (Value.Int r, v)

let decode cell =
  match cell with
  | Value.Pair (Value.Int r, v) -> Some (r, v)
  | Value.Bot -> None
  | _ -> None

(* Lexicographic order on (round, value). *)
let pair_gt (r1, v1) (r2, v2) =
  r1 > r2 || (r1 = r2 && Value.compare v1 v2 > 0)

(* A process racing on [bank], which the caller has checked: non-empty,
   distinct, and [decide_round >= 1]. *)
let racer ~bank ~decide_round ~name ~input =
  let poised s =
    match s.phase with
    | To_scan -> Proc.Scan
    | To_write j -> Proc.Update (j, encode s.r s.v)
    | Done y -> Proc.Output y
  in
  let on_scan s view =
    let entries = List.map (fun j -> decode view.(j)) bank in
    (* Adopt the lexicographically largest pair seen, if it beats ours. *)
    let r, v =
      List.fold_left
        (fun (r, v) entry ->
          match entry with
          | Some (r', v') when pair_gt (r', v') (r, v) -> (r', v')
          | Some _ | None -> (r, v))
        (s.r, s.v) entries
    in
    let mine (entry : (int * Value.t) option) =
      match entry with
      | Some (r', v') -> r' = r && Value.equal v' v
      | None -> false
    in
    if List.for_all mine entries then
      if r >= decide_round then { r; v; phase = Done v }
      else
        (* Full bank at round r: advance and start writing round r+1. *)
        { r = r + 1; v; phase = To_write (List.hd bank) }
    else begin
      (* Write our pair into the first register of the bank that
         disagrees. *)
      let j =
        List.find
          (fun j -> not (mine (decode view.(j))))
          bank
      in
      { r; v; phase = To_write j }
    end
  in
  let on_update s = { s with phase = To_scan } in
  Proc.make ~name ~init:{ r = 0; v = input; phase = To_scan } ~poised ~on_scan
    ~on_update

let check ~bank ~decide_round =
  (match bank with
  | [] -> invalid_arg "Racing.proc: empty bank"
  | _ :: _ -> ());
  if decide_round < 1 then invalid_arg "Racing.proc: decide_round must be >= 1"

let proc ~bank ?(decide_round = 1) ~name ~input () =
  if List.length (List.sort_uniq Int.compare bank) <> List.length bank then
    invalid_arg "Racing.proc: bank components must be distinct";
  check ~bank ~decide_round;
  racer ~bank ~decide_round ~name ~input

(* The names of the first pids, formatted once: a simulation builds every
   process it simulates anew on each run. *)
let names = Array.init 64 (Printf.sprintf "racing%d")

let name_of pid =
  if pid >= 0 && pid < Array.length names then names.(pid)
  else Printf.sprintf "racing%d" pid

(* [0; ...; m - 1] is distinct, so a process of the protocol skips
   [proc]'s sort of its bank. *)
let protocol ~m ?(decide_round = 1) () =
  let bank = List.init m Fun.id in
  fun pid input ->
    check ~bank ~decide_round;
    racer ~bank ~decide_round ~name:(name_of pid) ~input
