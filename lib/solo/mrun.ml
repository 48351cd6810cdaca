open Rsim_value
open Rsim_shmem

type event = { idx : int; pid : int; step : Ndproto.step; response : Value.t }

type config = {
  kinds : Objects.kind array;
  mem : Value.t array;
  procs : Derandomize.t array;
  steps : int array;
  rev_trace : event list;
  next_idx : int;
}

let init procs =
  match procs with
  | [] -> invalid_arg "Mrun.init: no processes"
  | p0 :: rest ->
    let nd0 = Derandomize.nd p0 in
    List.iter
      (fun p ->
        let nd = Derandomize.nd p in
        if nd.Ndproto.m <> nd0.Ndproto.m || nd.Ndproto.kinds <> nd0.Ndproto.kinds
        then invalid_arg "Mrun.init: processes disagree on the shared object")
      rest;
    {
      kinds = nd0.Ndproto.kinds;
      mem = Array.map Objects.initial nd0.Ndproto.kinds;
      procs = Array.of_list procs;
      steps = Array.make (List.length procs) 0;
      rev_trace = [];
      next_idx = 0;
    }

let mem c = Array.copy c.mem
let proc c pid = c.procs.(pid)

let live c =
  List.filter
    (fun pid ->
      match Derandomize.poised c.procs.(pid) with
      | `Step _ -> true
      | `Output _ -> false)
    (List.init (Array.length c.procs) Fun.id)

let trace c = List.rev c.rev_trace

let step_pid c pid =
  match Derandomize.poised c.procs.(pid) with
  | `Output _ -> invalid_arg "Mrun.step_pid: process already output"
  | `Step step ->
    let mem', response =
      match step with
      | Ndproto.Nscan -> (c.mem, Ndproto.view_of_ep c.mem)
      | Ndproto.Nop (j, op) -> (
        match Objects.apply c.kinds.(j) c.mem.(j) op with
        | Ok (v', resp) ->
          let mem' = Array.copy c.mem in
          mem'.(j) <- v';
          (mem', resp)
        | Error e -> failwith ("Mrun.step_pid: " ^ e))
    in
    let procs' = Array.copy c.procs in
    procs'.(pid) <- Derandomize.advance c.procs.(pid) ~response;
    let steps' = Array.copy c.steps in
    steps'.(pid) <- steps'.(pid) + 1;
    {
      c with
      mem = mem';
      procs = procs';
      steps = steps';
      rev_trace = { idx = c.next_idx; pid; step; response } :: c.rev_trace;
      next_idx = c.next_idx + 1;
    }

type outcome = All_done | Step_limit | Schedule_exhausted

let run ?(max_steps = 100_000) ~sched c =
  let rec go c sched budget =
    match live c with
    | [] -> (c, All_done)
    | live_pids ->
      if budget <= 0 then (c, Step_limit)
      else begin
        match Schedule.next sched ~live:live_pids with
        | None -> (c, Schedule_exhausted)
        | Some (pid, sched') -> go (step_pid c pid) sched' (budget - 1)
      end
  in
  go c sched max_steps

let outputs c =
  List.filter_map
    (fun pid ->
      match Derandomize.poised c.procs.(pid) with
      | `Output v -> Some (pid, v)
      | `Step _ -> None)
    (List.init (Array.length c.procs) Fun.id)

let solo_terminates ?(max_steps = 100_000) c pid =
  match Derandomize.poised c.procs.(pid) with
  | `Output _ -> true
  | `Step _ -> (
    let c', outcome = run ~max_steps ~sched:(Schedule.solo pid) c in
    match outcome with
    | All_done | Schedule_exhausted ->
      (match Derandomize.poised c'.procs.(pid) with
      | `Output _ -> true
      | `Step _ -> false)
    | Step_limit -> false)
