type pid_set = int list

let same_poised a b =
  match (a, b) with
  | Proc.Scan, Proc.Scan -> true
  | Proc.Update (j, v), Proc.Update (j', v') ->
    j = j' && Rsim_value.Value.equal v v'
  | Proc.Output v, Proc.Output v' -> Rsim_value.Value.equal v v'
  | (Proc.Scan | Proc.Update _ | Proc.Output _), _ -> false

let indistinguishable c c' ~procs =
  Snapshot.equal (Run.mem c) (Run.mem c')
  && List.for_all
       (fun pid -> same_poised (Proc.poised (Run.proc c pid)) (Proc.poised (Run.proc c' pid)))
       procs

(* Apply the steps of [pids] in order, skipping pids that have already
   output. *)
let apply_schedule c pids =
  List.fold_left
    (fun c pid ->
      if Proc.is_done (Run.proc c pid) then c else Run.step_pid c pid)
    c pids

let transfer ~from_ ~to_ ~procs pids =
  if not (indistinguishable from_ to_ ~procs) then
    invalid_arg "Exec.transfer: configurations distinguishable to procs";
  if List.exists (fun p -> not (List.mem p procs)) pids then
    invalid_arg "Exec.transfer: schedule mentions processes outside procs";
  let a = apply_schedule from_ pids in
  let b = apply_schedule to_ pids in
  if not (indistinguishable a b ~procs) then
    failwith "Exec.transfer: indistinguishability was not preserved";
  (a, b)

let covering c j =
  List.filter
    (fun pid ->
      match Proc.poised (Run.proc c pid) with
      | Proc.Update (j', _) -> j = j'
      | Proc.Scan | Proc.Output _ -> false)
    (List.init (Run.n_procs c) Fun.id)

let block_write c pids =
  List.fold_left
    (fun c pid ->
      match Proc.poised (Run.proc c pid) with
      | Proc.Update _ -> Run.step_pid c pid
      | Proc.Scan | Proc.Output _ ->
        invalid_arg
          (Printf.sprintf "Exec.block_write: process %d is not covering" pid))
    c pids
