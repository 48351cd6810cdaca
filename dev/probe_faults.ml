(* Watchdog calibration probe: run clean simulations across shapes and
   seeds and count runs the default supervision watchdog would wrongly
   quarantine. Lemma 31's step bound only covers all-covering
   simulations, so [Harness.default_watchdog] takes a generous multiple;
   this probe is how that multiple was sized. Expected output:
   "total failures: 0". *)
open Rsim_shmem
open Rsim_simulation
open Rsim_explore
let () =
  let bad = ref 0 in
  for seed = 0 to 200 do
    List.iter (fun (m, cov, d) ->
      let f = cov + d in
      let n = (cov * m) + d in
      let spec = Explore.Harness_target.racing_spec ~n ~m ~f ~d in
      let r = Harness.run ~max_ops:500_000 ~sched:(Schedule.random ~seed) spec in
      if not r.Harness.all_done then begin
        incr bad;
        if !bad <= 5 then begin
          Printf.printf "NOT DONE seed=%d m=%d f=%d d=%d bound=%d ops=[%s] quarantined=%d\n"
            seed m f d (Complexity.step_bound ~f ~m)
            (String.concat ";" (Array.to_list (Array.map string_of_int r.Harness.ops_per_sim)))
            (List.length r.Harness.report.Harness.quarantined)
        end
      end)
      [ (1,1,0); (1,1,1); (2,1,0); (2,2,0); (2,1,1); (3,1,0); (3,2,1); (3,3,1); (2,3,1) ]
  done;
  Printf.printf "total failures: %d\n" !bad
