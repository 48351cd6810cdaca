(* Quickstart: the three layers of the library in one file.

   1. Use the augmented snapshot directly: Block-Updates return views of
      the past (§3).
   2. Run a protocol in the simulated system.
   3. Run the revisionist simulation end to end (§4) and let the
      Lemma 26 analysis replay what happened.

   Run with: dune exec examples/quickstart.exe *)

open Core

let () =
  print_endline "== 1. The augmented snapshot object ==";
  let aug = Aug.create ~f:2 ~m:3 () in
  let show view =
    String.concat "; " (List.map Value.show (Array.to_list view))
  in
  (* Each process is a program: [let*] issues an operation and continues
     with its result. *)
  let cfg = Aug.config aug in
  let () =
    let open Aug.Prog in
    let q0 =
      let* r =
        Aug.block_update_prog cfg ~me:0 [ (0, Value.Int 10); (2, Value.Int 30) ]
      in
      (match r with
      | `View v ->
        Printf.printf "q0 Block-Update was atomic; past view = [%s]\n" (show v)
      | `Yield -> print_endline "q0 yielded (impossible: q0 has the lowest id)");
      let* v = Aug.scan_prog cfg ~me:0 in
      Printf.printf "q0 Scan = [%s]\n" (show v);
      return ()
    in
    let q1 =
      let* r = Aug.block_update_prog cfg ~me:1 [ (1, Value.Int 20) ] in
      (match r with
      | `View v ->
        Printf.printf "q1 Block-Update was atomic; past view = [%s]\n" (show v)
      | `Yield ->
        print_endline "q1 yielded: a lower-id update landed inside its interval");
      return ()
    in
    let r = start ~apply:(Aug.apply aug) ~emit:(Aug.record aug) [ q0; q1 ] in
    run ~sched:Schedule.round_robin r
  in
  let report = Aug_spec.report (Aug.index aug) in
  Printf.printf "spec check (Lemmas 2-19, Thm 20): %s\n\n"
    (if report.Aug_spec.ok then "all hold" else "FAILED");

  print_endline "== 2. A protocol in the simulated system ==";
  let inputs = [ Value.Int 7; Value.Int 9 ] in
  let procs =
    List.mapi (fun pid input -> (Racing.protocol ~m:2 ()) pid input) inputs
  in
  let c = Run.init ~m:2 procs in
  let c', _ = Run.run ~sched:(Schedule.random ~seed:42) c in
  List.iter
    (fun (pid, v) -> Printf.printf "process %d decided %s\n" pid (Value.show v))
    (Run.outputs c');
  print_newline ();

  print_endline "== 3. The revisionist simulation ==";
  let spec =
    {
      Harness.protocol = (fun pid input -> (Racing.protocol ~m:2 ()) pid input);
      n = 4;
      m = 2;
      f = 2;
      d = 0;
      inputs = [ Value.Int 1; Value.Int 2 ];
    }
  in
  print_string (Harness.architecture spec);
  let result = Harness.run ~sched:(Schedule.random ~seed:7) spec in
  Printf.printf "wait-free: %b, H-operations: %d\n" result.Harness.all_done
    result.Harness.total_ops;
  List.iter
    (fun (i, v) -> Printf.printf "simulator q%d output %s\n" i (Value.show v))
    result.Harness.outputs;
  let rep = Analysis.check spec result in
  Printf.printf
    "Lemma 26 replay: %s (%d linearized steps, %d revisions, %d hidden steps)\n"
    (if rep.Analysis.ok then "ok" else "FAILED")
    rep.Analysis.stats.Analysis.n_lin_items rep.Analysis.stats.Analysis.n_revisions
    rep.Analysis.stats.Analysis.n_hidden_steps
