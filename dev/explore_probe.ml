(* Scratch: inspect the violations the pruned engine reports on the
   Yield_on_higher seeded bug, to tune the dedup-soundness test. *)
open Rsim_explore
open Rsim_augmented

let () =
  let w =
    match
      Explore.Aug_target.builtin ~inject:Aug.Yield_on_higher
        ~oracles:[ Explore.Aug_target.theorem20 ]
        ~name:"bu-conflict" ~f:2 ~m:2 ()
    with
    | Some w -> w
    | None -> failwith "no workload"
  in
  let rep = Explore.exhaustive ~max_steps:10 ~domains:1 w in
  Printf.printf "violations: %d (dedup %d)\n"
    (List.length rep.Explore.violations)
    rep.Explore.dedup_hits;
  List.iter
    (fun v ->
      Printf.printf "script [%s] original [%s]\n"
        (String.concat ";" (List.map string_of_int v.Explore.script))
        (String.concat ";" (List.map string_of_int v.Explore.original));
      List.iter (fun e -> Printf.printf "   err: %s\n" e) v.Explore.errors)
    rep.Explore.violations
