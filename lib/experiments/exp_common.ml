open Core

let aug_workload ?helping ~f ~m ~n_ops ~seed () =
  let aug = Aug.create ?helping ~f ~m () in
  let cfg = Aug.config aug in
  let programs =
    List.init f (fun me ->
        Aug.random_prog cfg ~me ~seed:(seed + (1000 * me)) ~ops:n_ops
          ~max_comps:3 ~values:100)
  in
  let result =
    Aug.Prog.run
      ~sched:(Schedule.random ~seed)
      (Aug.Prog.start ~max_ops:100_000 ~apply:(Aug.apply aug)
         ~emit:(Aug.record aug) programs)
  in
  (aug, result.Aug.Prog.trace)

let racing_sim ~n ~m ~f ~d ~seed =
  let spec =
    {
      Harness.protocol = (fun pid input -> (Racing.protocol ~m ()) pid input);
      n;
      m;
      f;
      d;
      inputs = List.init f (fun p -> Value.Int (p + 1));
    }
  in
  let result = Harness.run ~sched:(Schedule.random ~seed) spec in
  (spec, result)

let pct num den =
  if den = 0 then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int num /. float_of_int den)
