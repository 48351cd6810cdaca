(* A guided tour of the impossibility machinery.

   1. Sperner's lemma — the combinatorial fact behind "wait-free k-set
      agreement is impossible", the reduction's target.
   2. A deterministic covering adversary breaking an under-provisioned
      protocol (no random search).
   3. The full revisionist simulation run on the same regime, printed as
      a readable timeline showing an actual revision of the past.

   Run with: dune exec examples/witness_tour.exe *)

open Core

let () =
  print_endline "== 1. Sperner's lemma, executably ==";
  let s = 6 in
  let coloring = Sperner.random_coloring ~s ~seed:2024 in
  let tri = Sperner.trichromatic ~s ~coloring in
  Printf.printf
    "random Sperner coloring at scale %d: %d trichromatic cells (odd, as the\n\
     lemma demands); the door-to-door walk finds one constructively: %s\n\n"
    s (List.length tri)
    (match Sperner.find_by_walk ~s ~coloring with
    | Some ((a1, a2), (b1, b2), (c1, c2)) ->
      Printf.sprintf "{(%d,%d) (%d,%d) (%d,%d)}" a1 a2 b1 b2 c1 c2
    | None -> "??");

  print_endline "== 2. A deterministic covering adversary ==";
  let procs =
    List.init 2 (fun pid -> (Racing.protocol ~m:2 ()) pid (Value.Int pid))
  in
  (match
     Covering_witness.phase_shifted ~procs ~m:2 ~task:Task.consensus ~max_turn:8
   with
  | Some w ->
    Printf.printf
      "racing consensus on m = n = 2 registers falls to a %s:\n  outputs %s\n\n"
      w.Covering_witness.description
      (String.concat ", "
         (List.map
            (fun (p, v) -> Printf.sprintf "p%d->%s" p (Value.show v))
            w.Covering_witness.outputs))
  | None -> print_endline "unexpectedly survived\n");

  print_endline "== 3. The revisionist simulation, annotated ==";
  let spec = Explore.Harness_target.racing_spec ~n:4 ~m:2 ~f:2 ~d:0 in
  let result = Harness.run ~sched:(Schedule.random ~seed:5) spec in
  Trace_pp.pp_run Format.std_formatter spec result;
  let rep = Analysis.check spec result in
  Format.printf "Lemma 26 replay: %s@."
    (if rep.Analysis.ok then "the revised execution is a legal run of the protocol"
     else "FAILED")
