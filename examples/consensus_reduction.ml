(* The headline reduction (Corollary 33, consensus case).

   Any obstruction-free consensus protocol for n processes needs at
   least n registers. The proof: if a protocol used fewer, two
   simulators could run the revisionist simulation and wait-free solve
   2-process consensus — impossible.

   This example makes the reduction concrete on both sides of the bound:

   - ENOUGH SPACE (one simulator, m components, m simulated processes):
     every schedule produces valid consensus.
   - TOO LITTLE SPACE (two simulators over m < n components): the
     simulation stays wait-free (Theorem 21!) — and because no correct
     protocol can exist there, our concrete racing protocol is driven to
     actual disagreement on many schedules.

   Run with: dune exec examples/consensus_reduction.exe *)

open Core

let run_case ~label ~n ~m ~f ~seeds =
  let spec = Explore.Harness_target.racing_spec ~n ~m ~f ~d:0 in
  let wait_free = ref 0 and violations = ref 0 in
  let first = ref None in
  for seed = 0 to seeds - 1 do
    let result = Harness.run ~sched:(Schedule.random ~seed) spec in
    if result.Harness.all_done then incr wait_free;
    match Harness.validate spec result ~task:Task.consensus with
    | Error _ when result.Harness.all_done ->
      incr violations;
      if !first = None then first := Some (seed, result.Harness.outputs)
    | _ -> ()
  done;
  Printf.printf "%s: n=%d m=%d f=%d | wait-free %d/%d | violations %d/%d\n" label
    n m f !wait_free seeds !violations seeds;
  match !first with
  | Some (seed, outputs) ->
    Printf.printf "  e.g. seed %d: %s\n" seed
      (String.concat ", "
         (List.map
            (fun (i, v) -> Printf.sprintf "q%d->%s" i (Value.show v))
            outputs))
  | None -> ()

let () =
  let n = 4 in
  Printf.printf "Corollary 33: obstruction-free consensus among n=%d needs >= %d registers.\n\n"
    n (Lower.consensus ~n);
  run_case ~label:"enough space      " ~n:3 ~m:3 ~f:1 ~seeds:100;
  run_case ~label:"too little, f=2   " ~n ~m:2 ~f:2 ~seeds:100;
  run_case ~label:"too little, f=3   " ~n:6 ~m:2 ~f:3 ~seeds:100;
  print_newline ();
  print_endline
    "Wait-freedom holds in every case (Theorem 21): the simulators never hang.";
  print_endline
    "Below the bound, the reduction exposes the protocol: disagreement executions";
  print_endline
    "exist, which is exactly why no correct protocol can live there."
