(* The schedules as they were before a schedule became a variant: a
   record holding the closure that makes the next decision. The module
   is kept verbatim as the reference that the equivalence test in
   test_shmem.ml compares {!Rsim_shmem.Schedule} against. *)

open Rsim_value

type t = { next : live:int list -> (int * t) option }

let next t ~live = if live = [] then None else t.next ~live

let round_robin =
  let rec make last =
    { next =
        (fun ~live ->
          (* First live pid strictly greater than [last], else wrap. *)
          let candidate =
            match List.find_opt (fun p -> p > last) live with
            | Some p -> p
            | None -> List.hd live
          in
          Some (candidate, make candidate));
    }
  in
  make (-1)

let solo pid =
  let rec t =
    { next = (fun ~live -> if List.mem pid live then Some (pid, t) else None) }
  in
  t

let script pids =
  let rec make = function
    | [] -> { next = (fun ~live:_ -> None) }
    | pid :: rest ->
      { next =
          (fun ~live ->
            if List.mem pid live then Some (pid, make rest)
            else (make rest).next ~live);
      }
  in
  make pids

let random ~seed =
  let rec make rng =
    { next =
        (fun ~live ->
          let pid, rng' = Prng.choose rng live in
          Some (pid, make rng'));
    }
  in
  make (Prng.make seed)

let among ~procs ~seed =
  let rec make rng =
    { next =
        (fun ~live ->
          match List.filter (fun p -> List.mem p procs) live with
          | [] -> None
          | eligible ->
            let pid, rng' = Prng.choose rng eligible in
            Some (pid, make rng'));
    }
  in
  make (Prng.make seed)

let phased ~prefix_len ~prefix ~suffix =
  let rec make k prefix =
    if k <= 0 then suffix
    else
      { next =
          (fun ~live ->
            match prefix.next ~live with
            | Some (pid, prefix') -> Some (pid, make (k - 1) prefix')
            | None -> suffix.next ~live);
      }
  in
  make prefix_len prefix

let with_crashes crashes t =
  (* counts: association list pid -> steps taken so far. *)
  let rec make counts t =
    { next =
        (fun ~live ->
          let alive =
            List.filter
              (fun pid ->
                match List.assoc_opt pid crashes with
                | None -> true
                | Some limit ->
                  let taken =
                    Option.value ~default:0 (List.assoc_opt pid counts)
                  in
                  taken < limit)
              live
          in
          if alive = [] then None
          else
            match t.next ~live:alive with
            | None -> None
            | Some (pid, t') ->
              let taken = Option.value ~default:0 (List.assoc_opt pid counts) in
              let counts' = (pid, taken + 1) :: List.remove_assoc pid counts in
              Some (pid, make counts' t'));
    }
  in
  make [] t

let fn f =
  let rec make step =
    { next =
        (fun ~live ->
          match f ~step ~live with
          | None -> None
          | Some pid ->
            if List.mem pid live then Some (pid, make (step + 1)) else None);
    }
  in
  make 0
