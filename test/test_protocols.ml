open Rsim_value
open Rsim_shmem
open Rsim_tasks
open Rsim_protocols

let i n = Value.Int n

let check_task task ~inputs c =
  let outputs = List.map snd (Run.outputs c) in
  match Task.check task ~inputs ~outputs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "task violation: %s" e

(* ---- Racing consensus ---- *)

let racing_procs ~m inputs =
  List.mapi
    (fun pid input -> (Racing.protocol ~m ()) pid input)
    inputs

let test_racing_solo () =
  let c = Run.init ~m:3 (racing_procs ~m:3 [ i 7 ]) in
  let c', outcome = Run.run ~sched:(Schedule.solo 0) c in
  Alcotest.(check bool) "solo terminates" true
    (outcome = Run.All_done || outcome = Run.Schedule_exhausted);
  Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
    "decides own value"
    [ (0, i 7) ]
    (Run.outputs c')

let test_racing_two_procs_agree () =
  List.iter
    (fun seed ->
      let c = Run.init ~m:2 (racing_procs ~m:2 [ i 1; i 2 ]) in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "terminates" true (outcome = Run.All_done);
      check_task Task.consensus ~inputs:[ i 1; i 2 ] c')
    (List.init 50 Fun.id)

let test_racing_n_procs_agree () =
  List.iter
    (fun seed ->
      let inputs = [ i 10; i 20; i 30; i 40 ] in
      let c = Run.init ~m:4 (racing_procs ~m:4 inputs) in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "terminates" true (outcome = Run.All_done);
      check_task Task.consensus ~inputs c')
    (List.init 30 Fun.id)

let test_racing_obstruction_free () =
  (* From any reachable configuration (random prefix), each process
     running solo terminates. *)
  List.iter
    (fun seed ->
      let inputs = [ i 1; i 2; i 3 ] in
      let c = Run.init ~m:3 (racing_procs ~m:3 inputs) in
      let sched =
        Schedule.phased ~prefix_len:(seed mod 37)
          ~prefix:(Schedule.random ~seed) ~suffix:(Schedule.script [])
      in
      let c', _ = Run.run ~sched c in
      List.iter
        (fun pid ->
          Alcotest.(check bool)
            (Printf.sprintf "pid %d solo-terminates (seed %d)" pid seed)
            true
            (Run.solo_terminates ~max_steps:1_000 c' pid))
        (Run.live c'))
    (List.init 40 Fun.id)

let test_racing_one_register_disagreement () =
  (* The covering scenario: n = 2 > m = 1; q takes its initial scan,
     sleeps; p runs to completion and decides its own value; q then
     obliterates the single register and also decides its own value.
     This is exactly the violation the space lower bound (Corollary 33,
     consensus needs n registers) predicts must exist. *)
  let c = Run.init ~m:1 (racing_procs ~m:1 [ i 1; i 2 ]) in
  (* one step of q (pid 1): its first scan of empty memory *)
  let c = Run.step_pid c 1 in
  (* p (pid 0) runs solo to a decision *)
  let c, _ = Run.run ~max_steps:1_000 ~sched:(Schedule.solo 0) c in
  Alcotest.(check bool) "p decided" true (List.mem_assoc 0 (Run.outputs c));
  (* q runs solo: its stale write overwrites the register *)
  let c, _ = Run.run ~max_steps:1_000 ~sched:(Schedule.solo 1) c in
  let outputs = List.map snd (Run.outputs c) in
  Alcotest.(check int) "both decided" 2 (List.length outputs);
  Alcotest.(check bool) "disagreement witnessed" false
    (match Task.check Task.consensus ~inputs:[ i 1; i 2 ] ~outputs with
     | Ok () -> true
     | Error _ -> false)

let test_racing_validity () =
  List.iter
    (fun seed ->
      let inputs = [ i 5; i 5; i 9 ] in
      let c = Run.init ~m:3 (racing_procs ~m:3 inputs) in
      let c', _ = Run.run ~sched:(Schedule.random ~seed) c in
      check_task (Task.kset ~k:3) ~inputs c' (* validity only *))
    (List.init 20 Fun.id)

let test_racing_covering_adversary_rate () =
  (* Racing is the deliberately breakable comparator: a phase-shifted
     covering adversary defeats it even at m = n (see racing.mli). Over
     seeds 0..999 at n = m = 2 the violation rate is nonzero but tiny.
     Validity and termination must never fail. *)
  let violations = ref 0 in
  for seed = 0 to 999 do
    let inputs = [ i 0; i 1 ] in
    let c = Run.init ~m:2 (racing_procs ~m:2 inputs) in
    let c', outcome = Run.run ~max_steps:100_000 ~sched:(Schedule.random ~seed) c in
    Alcotest.(check bool) "terminates" true (outcome = Run.All_done);
    let outs = List.map snd (Run.outputs c') in
    List.iter
      (fun o ->
        Alcotest.(check bool) "validity" true
          (List.exists (Value.equal o) inputs))
      outs;
    if List.length (Value.distinct outs) > 1 then incr violations
  done;
  Alcotest.(check bool)
    (Printf.sprintf "violations exist but are rare (%d/1000)" !violations)
    true
    (!violations >= 1 && !violations <= 20)

(* ---- Adopt2: the provably correct pair consensus ---- *)

let adopt_pair inputs =
  match inputs with
  | [ a; b ] ->
    [
      Adopt2.proc ~mine:0 ~theirs:1 ~name:"p0" ~input:a ();
      Adopt2.proc ~mine:1 ~theirs:0 ~name:"p1" ~input:b ();
    ]
  | _ -> assert false

let test_adopt2_solo () =
  let c = Run.init ~m:2 (adopt_pair [ i 1; i 2 ]) in
  let c', _ = Run.run ~sched:(Schedule.solo 0) c in
  Alcotest.(check bool) "solo decides own input" true
    (List.assoc_opt 0 (Run.outputs c') = Some (i 1))

let test_adopt2_exhaustive () =
  (* Model-check ALL interleavings up to a depth bound: agreement and
     validity hold in every terminating execution. (The bound is needed
     because adopt-swap livelocks make the execution graph cyclic — an
     obstruction-free protocol need not terminate under lockstep.) *)
  let inputs = [ i 1; i 2 ] in
  let explored = ref 0 in
  let rec explore c depth =
    match Run.live c with
    | [] ->
      incr explored;
      let outs = List.map snd (Run.outputs c) in
      Alcotest.(check bool) "agreement in every execution" true
        (List.length (Value.distinct outs) <= 1);
      List.iter
        (fun o ->
          Alcotest.(check bool) "validity in every execution" true
            (List.exists (Value.equal o) inputs))
        outs
    | live ->
      if depth > 0 then
        List.iter (fun pid -> explore (Run.step_pid c pid) (depth - 1)) live
  in
  explore (Run.init ~m:2 (adopt_pair inputs)) 14;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d executions" !explored)
    true (!explored > 50)

let test_adopt2_obstruction_free () =
  List.iter
    (fun seed ->
      let c = Run.init ~m:2 (adopt_pair [ i 1; i 2 ]) in
      let sched =
        Schedule.phased ~prefix_len:(seed mod 7) ~prefix:(Schedule.random ~seed)
          ~suffix:(Schedule.script [])
      in
      let c', _ = Run.run ~sched c in
      List.iter
        (fun pid ->
          Alcotest.(check bool) "solo-terminates" true
            (Run.solo_terminates ~max_steps:100 c' pid))
        (Run.live c'))
    (List.init 30 Fun.id)

(* ---- Committee k-set agreement ---- *)

let test_committee_partition () =
  Alcotest.(check (list int)) "bank 0" [ 0; 1; 2 ] (Committee.bank_of ~n:6 ~k:2 ~g:0);
  Alcotest.(check (list int)) "bank 1" [ 3; 4; 5 ] (Committee.bank_of ~n:6 ~k:2 ~g:1);
  Alcotest.(check int) "pid 2 in committee 0" 0 (Committee.committee_of ~n:6 ~k:2 ~pid:2);
  Alcotest.(check int) "pid 3 in committee 1" 1 (Committee.committee_of ~n:6 ~k:2 ~pid:3);
  (* uneven split: 7 into 3 -> sizes 3,2,2 *)
  Alcotest.(check (list int)) "uneven bank 0" [ 0; 1; 2 ] (Committee.bank_of ~n:7 ~k:3 ~g:0);
  Alcotest.(check (list int)) "uneven bank 2" [ 5; 6 ] (Committee.bank_of ~n:7 ~k:3 ~g:2)

let test_committee_kset () =
  (* k = 3 committees of 2 over n = 6: pairs run Adopt2, so this is a
     provably correct 3-set agreement; check it across many schedules. *)
  List.iter
    (fun seed ->
      let inputs = List.init 6 (fun p -> i (100 + p)) in
      let procs = List.mapi (fun pid inp -> (Committee.protocol ~n:6 ~k:3 ()) pid inp) inputs in
      let c = Run.init ~m:6 procs in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "terminates" true (outcome = Run.All_done);
      check_task (Task.kset ~k:3) ~inputs c')
    (List.init 30 Fun.id)

let test_committee_racing_validity () =
  (* Committees of 3 race; validity and the k bound on distinct decided
     values still always hold even if a committee internally splits it
     stays within its own inputs (validity), so only the count can rise;
     check validity across schedules. *)
  List.iter
    (fun seed ->
      let inputs = List.init 6 (fun p -> i (100 + p)) in
      let procs = List.mapi (fun pid inp -> (Committee.protocol ~n:6 ~k:2 ()) pid inp) inputs in
      let c = Run.init ~m:6 procs in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "terminates" true (outcome = Run.All_done);
      check_task (Task.kset ~k:6) ~inputs c' (* validity *))
    (List.init 20 Fun.id)

let test_committee_intra_group_agreement () =
  List.iter
    (fun seed ->
      let inputs = List.init 4 (fun p -> i p) in
      let procs = List.mapi (fun pid inp -> (Committee.protocol ~n:4 ~k:2 ()) pid inp) inputs in
      let c = Run.init ~m:4 procs in
      let c', _ = Run.run ~sched:(Schedule.random ~seed) c in
      let outs = Run.outputs c' in
      let out_of p = List.assoc_opt p outs in
      (match (out_of 0, out_of 1) with
      | Some a, Some b ->
        Alcotest.(check bool) "committee 0 agrees" true (Value.equal a b)
      | _ -> ());
      match (out_of 2, out_of 3) with
      | Some a, Some b ->
        Alcotest.(check bool) "committee 1 agrees" true (Value.equal a b)
      | _ -> ())
    (List.init 30 Fun.id)

(* ---- Approximate agreement ---- *)

let test_approx_rounds_for () =
  Alcotest.(check int) "eps=1" 1 (Approx_agreement.rounds_for ~eps:1.0);
  Alcotest.(check bool) "eps=0.1 needs >= 4" true
    (Approx_agreement.rounds_for ~eps:0.1 >= 4);
  Alcotest.(check bool) "smaller eps needs more rounds" true
    (Approx_agreement.rounds_for ~eps:0.01 > Approx_agreement.rounds_for ~eps:0.1)

let test_approx_agreement () =
  let eps = 0.1 in
  let rounds = Approx_agreement.rounds_for ~eps in
  List.iter
    (fun seed ->
      let inputs = [ Value.Float 0.0; Value.Float 1.0; Value.Float 0.5 ] in
      let procs =
        List.mapi (fun pid inp -> (Approx_agreement.protocol ~rounds ()) pid inp) inputs
      in
      let c = Run.init ~m:3 procs in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "terminates (wait-free)" true (outcome = Run.All_done);
      check_task (Task.approx ~eps) ~inputs c')
    (List.init 50 Fun.id)

let test_approx_wait_free_under_crash () =
  (* Even if one process crashes mid-protocol, the others finish. *)
  let eps = 0.25 in
  let rounds = Approx_agreement.rounds_for ~eps in
  let inputs = [ Value.Float 0.0; Value.Float 1.0 ] in
  let procs =
    List.mapi (fun pid inp -> (Approx_agreement.protocol ~rounds ()) pid inp) inputs
  in
  let c = Run.init ~m:2 procs in
  let sched = Schedule.with_crashes [ (0, 3) ] Schedule.round_robin in
  let c', _ = Run.run ~sched c in
  Alcotest.(check bool) "survivor output" true (List.mem_assoc 1 (Run.outputs c'));
  let outputs = List.map snd (Run.outputs c') in
  match Task.check (Task.approx ~eps) ~inputs ~outputs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "task violation: %s" e

let test_approx_solo () =
  let rounds = Approx_agreement.rounds_for ~eps:0.1 in
  let p = (Approx_agreement.protocol ~rounds ()) 0 (Value.Float 0.25) in
  let c = Run.init ~m:1 [ p ] in
  let c', _ = Run.run ~sched:(Schedule.solo 0) c in
  match Run.outputs c' with
  | [ (0, Value.Float v) ] ->
    Alcotest.(check (float 1e-9)) "solo keeps input" 0.25 v
  | _ -> Alcotest.fail "expected solo output"

let test_approx_exhaustive () =
  (* Model-check ALL interleavings of two approximate-agreement
     processes (2 rounds, eps = 0.5 on inputs {0,1}): every complete
     execution satisfies eps-agreement and validity. *)
  let eps = 0.5 in
  let rounds = 2 in
  let inputs = [ Value.Float 0.0; Value.Float 1.0 ] in
  let explored = ref 0 in
  let rec explore c depth =
    match Run.live c with
    | [] ->
      incr explored;
      let outputs = List.map snd (Run.outputs c) in
      (match Task.check (Task.approx ~eps) ~inputs ~outputs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "execution %d violates: %s" !explored e)
    | live ->
      if depth > 0 then
        List.iter (fun pid -> explore (Run.step_pid c pid) (depth - 1)) live
      else Alcotest.fail "depth exhausted: protocol not wait-free?!"
  in
  let procs =
    List.mapi
      (fun pid v -> (Approx_agreement.protocol ~rounds ()) pid v)
      inputs
  in
  explore (Run.init ~m:2 procs) 20;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d complete executions" !explored)
    true (!explored > 100)

let test_approx_shared_slots () =
  (* The space-constrained variant: n > m processes share m components.
     Wait-freedom and validity (outputs in the inputs' hull) always
     hold; ε-agreement is not guaranteed — that is the regime the lower
     bound speaks to (E10). *)
  let eps = 0.25 in
  let rounds = Approx_agreement.rounds_for ~eps in
  List.iter
    (fun seed ->
      let inputs = [ 0.0; 1.0; 0.5; 0.25 ] in
      let m = 2 in
      let procs =
        List.mapi
          (fun pid v ->
            (Approx_agreement.protocol_shared ~rounds ~m ()) pid (Value.Float v))
          inputs
      in
      let c = Run.init ~m procs in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      Alcotest.(check bool) "wait-free" true (outcome = Run.All_done);
      List.iter
        (fun (_, out) ->
          let x = Value.as_float_exn out in
          Alcotest.(check bool) "validity: in the hull" true
            (x >= 0.0 -. 1e-9 && x <= 1.0 +. 1e-9))
        (Run.outputs c'))
    (List.init 30 Fun.id)

(* ---- Safe agreement (the BG building block, for contrast) ---- *)

(* Runs one program per process; returns the run's result and what
   each process's read returned ([Some Bot] for a process that never
   finished a read). *)
let run_sa ~f ~sched programs =
  let sa = Safe_agreement.create ~f in
  let outs = Array.make f (Some Value.Bot) in
  let emit (Safe_agreement.Read { proc; value }) = outs.(proc) <- value in
  let result =
    let r =
      Safe_agreement.Prog.start ~max_ops:10_000 ~apply:(Safe_agreement.apply sa)
        ~emit programs
    in
    Safe_agreement.Prog.run ~sched r;
    Safe_agreement.Prog.current r
  in
  Array.iter
    (function
      | Rsim_runtime.Prog.Failed e -> raise e
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending
      | Rsim_runtime.Prog.Crashed -> ())
    result.Safe_agreement.Prog.statuses;
  (result, outs)

(* Propose [v], then read with at most [max_spins] scans. *)
let propose_read ~me ~max_spins v =
  Safe_agreement.Prog.bind (Safe_agreement.propose v) (fun () ->
      Safe_agreement.Prog.bind (Safe_agreement.read ~me ~max_spins) (fun _ ->
          Safe_agreement.Prog.return ()))

let idle = Safe_agreement.Prog.return ()

let test_sa_solo () =
  let _, outs =
    run_sa ~f:2 ~sched:Schedule.round_robin
      [ propose_read ~me:0 ~max_spins:10 (i 7); idle ]
  in
  Alcotest.(check bool) "reads own proposal" true (outs.(0) = Some (i 7))

let test_sa_agreement_random () =
  List.iter
    (fun seed ->
      let _, outs =
        run_sa ~f:3 ~sched:(Schedule.random ~seed)
          (List.init 3 (fun me -> propose_read ~me ~max_spins:50 (i (100 + me))))
      in
      let got = Array.to_list outs |> List.filter_map Fun.id in
      Alcotest.(check int) "all read" 3 (List.length got);
      Alcotest.(check int)
        (Printf.sprintf "agreement (seed %d)" seed)
        1
        (List.length (Value.distinct got));
      List.iter
        (fun v ->
          Alcotest.(check bool) "validity" true
            (List.exists (Value.equal v) [ i 100; i 101; i 102 ]))
        got)
    (List.init 40 Fun.id)

let test_sa_crash_in_unsafe_window_blocks () =
  (* The BG contrast: a proposer that crashes between raising level 1
     and settling leaves readers spinning forever — the blocking the
     revisionist simulation's augmented snapshot avoids (Theorem 20
     keeps Block-Updates wait-free and Scans non-blocking under crashes,
     because helping information lives in the shared object, not in a
     live proposer). *)
  let sched =
    (* pid 0 takes exactly 1 step (its level-1 write), then crashes. *)
    Schedule.with_crashes [ (0, 1) ] Schedule.round_robin
  in
  let _, outs =
    run_sa ~f:2 ~sched
      [ Safe_agreement.propose (i 1); propose_read ~me:1 ~max_spins:100 (i 2) ]
  in
  Alcotest.(check bool) "reader blocked (timed out)" true (outs.(1) = None)

let test_sa_crash_after_settling_ok () =
  let sched =
    (* pid 0 completes its propose (3 steps), then crashes. *)
    Schedule.with_crashes [ (0, 3) ] Schedule.round_robin
  in
  let _, outs =
    run_sa ~f:2 ~sched
      [
        propose_read ~me:0 ~max_spins:10 (i 1);
        propose_read ~me:1 ~max_spins:100 (i 2);
      ]
  in
  Alcotest.(check bool) "reader unblocked after settled crash" true
    (match outs.(1) with Some v -> not (Value.is_bot v) | None -> false)

(* Statuses, reads and schedules of random and crashing runs, pinned by
   a digest recorded when the processes were direct-style fibers: a
   digest that moves is a change of behaviour. *)
let test_sa_golden () =
  let show_status = function
    | Rsim_runtime.Prog.Done -> "done"
    | Rsim_runtime.Prog.Pending -> "pending"
    | Rsim_runtime.Prog.Crashed -> "crashed"
    | Rsim_runtime.Prog.Failed e -> "failed " ^ Printexc.to_string e
  in
  let render ~f ~sched =
    let result, outs =
      run_sa ~f ~sched
        (List.init f (fun me -> propose_read ~me ~max_spins:50 (i (100 + me))))
    in
    String.concat " "
      (Array.to_list (Array.map show_status result.Safe_agreement.Prog.statuses))
    ^ " | "
    ^ String.concat " "
        (Array.to_list
           (Array.map (function None -> "none" | Some v -> Value.show v) outs))
    ^ " | "
    ^ String.concat " "
        (List.map
           (fun (e : Safe_agreement.Prog.trace_entry) -> string_of_int e.pid)
           result.Safe_agreement.Prog.trace)
    ^ "\n"
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      for seed = 0 to 39 do
        Buffer.add_string b (render ~f ~sched:(Schedule.random ~seed))
      done;
      for k = 0 to 7 do
        Buffer.add_string b
          (render ~f ~sched:(Schedule.with_crashes [ (0, k) ] Schedule.round_robin))
      done)
    [ 2; 3 ];
  Alcotest.(check string) "digest" "699fb785b4d8c65d580fb3e66b826133"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- Pathological ---- *)

let test_pathological () =
  let c = Run.init ~m:1 [ Pathological.spinner ~name:"s" ] in
  let _, outcome = Run.run ~max_steps:100 ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "spinner never ends" true (outcome = Run.Step_limit);
  let c = Run.init ~m:1 [ Pathological.constant ~name:"c" ~output:(i 1) ] in
  let c', _ = Run.run ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "constant outputs" true (Run.outputs c' = [ (0, i 1) ]);
  let c = Run.init ~m:2 [ Pathological.churner ~name:"ch" ~input:(i 5) ~writes:4 ] in
  let c', _ = Run.run ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "churner outputs input" true (Run.outputs c' = [ (0, i 5) ]);
  let c = Run.init ~m:1 [ Pathological.echo_first ~name:"e" ~input:(i 9) ] in
  let c', _ = Run.run ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "echo outputs own input on empty memory" true
    (Run.outputs c' = [ (0, i 9) ])

(* ---- properties ---- *)

let prop_racing_termination_validity =
  QCheck.Test.make
    ~name:"racing m=n: terminates with valid outputs under random schedules"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 2 5))
    (fun (seed, n) ->
      let inputs = List.init n (fun p -> i p) in
      let c = Run.init ~m:n (racing_procs ~m:n inputs) in
      let c', outcome = Run.run ~max_steps:200_000 ~sched:(Schedule.random ~seed) c in
      outcome = Run.All_done
      && List.for_all
           (fun (_, o) -> List.exists (Value.equal o) inputs)
           (Run.outputs c'))

let prop_adopt2_agreement =
  QCheck.Test.make ~name:"adopt2: agreement under random schedules" ~count:200
    QCheck.(pair (int_bound 1_000_000) (pair (int_range 0 5) (int_range 0 5)))
    (fun (seed, (a, b)) ->
      let c = Run.init ~m:2 (adopt_pair [ i a; i b ]) in
      let c', outcome = Run.run ~sched:(Schedule.random ~seed) c in
      outcome = Run.All_done
      && List.length (Value.distinct (List.map snd (Run.outputs c'))) <= 1)

let prop_approx_random =
  QCheck.Test.make ~name:"approx agreement under random schedules" ~count:100
    QCheck.(triple (int_bound 100_000) (int_range 2 4) (int_range 1 3))
    (fun (seed, n, e10) ->
      let eps = float_of_int e10 /. 10.0 in
      let rounds = Approx_agreement.rounds_for ~eps in
      let inputs = List.init n (fun p -> Value.Float (float_of_int p /. float_of_int (max 1 (n - 1)))) in
      let procs =
        List.mapi (fun pid inp -> (Approx_agreement.protocol ~rounds ()) pid inp) inputs
      in
      let c = Run.init ~m:n procs in
      let c', outcome = Run.run ~max_steps:200_000 ~sched:(Schedule.random ~seed) c in
      outcome = Run.All_done
      &&
      let outputs = List.map snd (Run.outputs c') in
      match Task.check (Task.approx ~eps) ~inputs ~outputs with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "protocols"
    [
      ( "racing",
        [
          Alcotest.test_case "solo" `Quick test_racing_solo;
          Alcotest.test_case "2 procs agree" `Quick test_racing_two_procs_agree;
          Alcotest.test_case "n procs agree" `Quick test_racing_n_procs_agree;
          Alcotest.test_case "obstruction-free" `Quick test_racing_obstruction_free;
          Alcotest.test_case "m < n disagreement witness" `Quick
            test_racing_one_register_disagreement;
          Alcotest.test_case "validity" `Quick test_racing_validity;
          Alcotest.test_case "covering adversary rate" `Slow
            test_racing_covering_adversary_rate;
        ] );
      ( "adopt2",
        [
          Alcotest.test_case "solo" `Quick test_adopt2_solo;
          Alcotest.test_case "exhaustive model check" `Quick test_adopt2_exhaustive;
          Alcotest.test_case "obstruction-free" `Quick test_adopt2_obstruction_free;
        ] );
      ( "committee",
        [
          Alcotest.test_case "partition" `Quick test_committee_partition;
          Alcotest.test_case "k-set valid" `Quick test_committee_kset;
          Alcotest.test_case "racing committees validity" `Quick
            test_committee_racing_validity;
          Alcotest.test_case "intra-group agreement" `Quick
            test_committee_intra_group_agreement;
        ] );
      ( "approx",
        [
          Alcotest.test_case "rounds_for" `Quick test_approx_rounds_for;
          Alcotest.test_case "agreement" `Quick test_approx_agreement;
          Alcotest.test_case "wait-free under crash" `Quick
            test_approx_wait_free_under_crash;
          Alcotest.test_case "solo" `Quick test_approx_solo;
          Alcotest.test_case "shared slots (space-constrained)" `Quick
            test_approx_shared_slots;
          Alcotest.test_case "exhaustive model check" `Quick test_approx_exhaustive;
        ] );
      ( "safe agreement",
        [
          Alcotest.test_case "solo" `Quick test_sa_solo;
          Alcotest.test_case "agreement + validity" `Quick test_sa_agreement_random;
          Alcotest.test_case "unsafe-window crash blocks (BG contrast)" `Quick
            test_sa_crash_in_unsafe_window_blocks;
          Alcotest.test_case "settled crash harmless" `Quick
            test_sa_crash_after_settling_ok;
          Alcotest.test_case "golden" `Quick test_sa_golden;
        ] );
      ("pathological", [ Alcotest.test_case "behaviours" `Quick test_pathological ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_racing_termination_validity; prop_adopt2_agreement; prop_approx_random ]
      );
    ]
