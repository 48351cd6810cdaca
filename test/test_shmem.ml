open Rsim_value
open Rsim_shmem

(* A minimal Assumption-1 protocol: scan, write own input to a slot,
   scan, output own input. *)
let writer ~slot ~input =
  let poised s =
    match s with
    | 0, _ -> Proc.Scan
    | 1, v -> Proc.Update (slot, v)
    | 2, _ -> Proc.Scan
    | _, v -> Proc.Output v
  in
  Proc.make
    ~name:(Printf.sprintf "writer%d" slot)
    ~init:(0, input)
    ~poised
    ~on_scan:(fun (ph, v) _view -> (ph + 1, v))
    ~on_update:(fun (ph, v) -> (ph + 1, v))

(* A protocol that scans forever (never outputs): for failure injection. *)
let spinner =
  let poised (ph, _) = if ph mod 2 = 0 then Proc.Scan else Proc.Update (0, Value.Int 0) in
  Proc.make ~name:"spinner" ~init:(0, ())
    ~poised
    ~on_scan:(fun (ph, u) _ -> (ph + 1, u))
    ~on_update:(fun (ph, u) -> (ph + 1, u))

(* A deliberately broken protocol: starts poised to update. *)
let broken =
  Proc.make ~name:"broken" ~init:()
    ~poised:(fun () -> Proc.Update (0, Value.Int 1))
    ~on_scan:(fun () _ -> ())
    ~on_update:(fun () -> ())

let test_proc_basics () =
  let p = writer ~slot:0 ~input:(Value.Int 9) in
  Alcotest.(check bool) "starts with scan" true (Proc.poised p = Proc.Scan);
  let p = Proc.step_scan p [| Value.Bot |] in
  (match Proc.poised p with
  | Proc.Update (0, Value.Int 9) -> ()
  | _ -> Alcotest.fail "expected update");
  let p = Proc.step_update p in
  Alcotest.(check bool) "scan again" true (Proc.poised p = Proc.Scan);
  let p = Proc.step_scan p [| Value.Int 9 |] in
  Alcotest.(check bool) "done" true (Proc.is_done p);
  Alcotest.(check bool) "output" true (Proc.output p = Some (Value.Int 9))

let test_proc_wrong_step () =
  let p = writer ~slot:0 ~input:(Value.Int 1) in
  Alcotest.check_raises "step_update when poised to scan"
    (Invalid_argument "Proc.step_update: writer0 is not poised to update")
    (fun () -> ignore (Proc.step_update p))

let test_snapshot () =
  let s = Snapshot.create ~m:3 in
  Alcotest.(check bool) "initial bot" true (Value.is_bot (Snapshot.get s 1));
  let s2 = Snapshot.update s 1 (Value.Int 5) in
  Alcotest.(check bool) "persistent: original unchanged" true
    (Value.is_bot (Snapshot.get s 1));
  Alcotest.(check bool) "updated" true
    (Value.equal (Snapshot.get s2 1) (Value.Int 5));
  let view = Snapshot.scan s2 in
  view.(0) <- Value.Int 99;
  Alcotest.(check bool) "scan returns a copy" true
    (Value.is_bot (Snapshot.get s2 0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Snapshot.update: component 3 out of range") (fun () ->
      ignore (Snapshot.update s 3 Value.Bot))

let test_schedule_round_robin () =
  let rec take sched live n acc =
    if n = 0 then List.rev acc
    else
      match Schedule.next sched ~live with
      | None -> List.rev acc
      | Some (pid, sched') -> take sched' live (n - 1) (pid :: acc)
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2 ]
    (take Schedule.round_robin [ 0; 1; 2 ] 6 []);
  Alcotest.(check (list int)) "skips missing" [ 0; 2; 0; 2 ]
    (take Schedule.round_robin [ 0; 2 ] 4 [])

let test_schedule_solo_script () =
  let rec take sched live n acc =
    if n = 0 then List.rev acc
    else
      match Schedule.next sched ~live with
      | None -> List.rev acc
      | Some (pid, sched') -> take sched' live (n - 1) (pid :: acc)
  in
  Alcotest.(check (list int)) "solo" [ 1; 1; 1 ] (take (Schedule.solo 1) [ 0; 1 ] 3 []);
  Alcotest.(check (list int)) "solo not live" [] (take (Schedule.solo 5) [ 0; 1 ] 3 []);
  Alcotest.(check (list int)) "script skips dead" [ 0; 1 ]
    (take (Schedule.script [ 0; 9; 1 ]) [ 0; 1 ] 5 [])

let test_schedule_random_deterministic () =
  let rec take sched live n acc =
    if n = 0 then List.rev acc
    else
      match Schedule.next sched ~live with
      | None -> List.rev acc
      | Some (pid, sched') -> take sched' live (n - 1) (pid :: acc)
  in
  let a = take (Schedule.random ~seed:5) [ 0; 1; 2 ] 20 [] in
  let b = take (Schedule.random ~seed:5) [ 0; 1; 2 ] 20 [] in
  Alcotest.(check (list int)) "same seed" a b;
  List.iter (fun p -> Alcotest.(check bool) "live" true (List.mem p [ 0; 1; 2 ])) a

let test_schedule_among () =
  let rec take sched live n acc =
    if n = 0 then List.rev acc
    else
      match Schedule.next sched ~live with
      | None -> List.rev acc
      | Some (pid, sched') -> take sched' live (n - 1) (pid :: acc)
  in
  let picks = take (Schedule.among ~procs:[ 1; 2 ] ~seed:0) [ 0; 1; 2; 3 ] 30 [] in
  Alcotest.(check int) "30 picks" 30 (List.length picks);
  List.iter
    (fun p -> Alcotest.(check bool) "only among" true (List.mem p [ 1; 2 ]))
    picks

let test_schedule_crashes () =
  let rec take sched live n acc =
    if n = 0 then List.rev acc
    else
      match Schedule.next sched ~live with
      | None -> List.rev acc
      | Some (pid, sched') -> take sched' live (n - 1) (pid :: acc)
  in
  (* pid 0 crashes after 2 steps. *)
  let sched = Schedule.with_crashes [ (0, 2) ] Schedule.round_robin in
  let picks = take sched [ 0; 1 ] 10 [] in
  Alcotest.(check int) "pid 0 took exactly 2 steps" 2
    (List.length (List.filter (fun p -> p = 0) picks))

(* ---- equivalence with the reference schedules ---- *)

(* A constructor tree, built alike in both versions. [T_fn s] is a
   custom schedule whose decisions depend on the step, the live set and
   [s], and that sometimes refuses or names a pid that is not live.
   [T_drawn (seed, n, len)] is [Schedule.drawn] of the stream of [seed],
   which the reference runs as the script of the same draws, made up
   front. *)
type sched_tree =
  | T_round_robin
  | T_solo of int
  | T_script of int list
  | T_drawn of int * int * int
  | T_random of int
  | T_among of int list * int
  | T_phased of int * sched_tree * sched_tree
  | T_crashes of (int * int) list * sched_tree
  | T_fn of int

let fn_of s ~step ~live =
  match (s + step) mod 7 with
  | 0 -> None
  | 1 -> Some 9
  | k -> Some (List.nth live (k mod List.length live))

let rec build_new = function
  | T_round_robin -> Schedule.round_robin
  | T_solo p -> Schedule.solo p
  | T_script ps -> Schedule.script ps
  | T_drawn (seed, n, len) -> Schedule.drawn (Prng.make seed) ~n ~len
  | T_random seed -> Schedule.random ~seed
  | T_among (procs, seed) -> Schedule.among ~procs ~seed
  | T_phased (prefix_len, a, b) ->
    Schedule.phased ~prefix_len ~prefix:(build_new a) ~suffix:(build_new b)
  | T_crashes (cs, a) -> Schedule.with_crashes cs (build_new a)
  | T_fn s -> Schedule.fn (fn_of s)

(* [len] draws below [n] from the stream of [seed]. *)
let draws seed ~n ~len =
  let rec go g k acc =
    if k = 0 then List.rev acc
    else
      let pid, g = Prng.int g n in
      go g (k - 1) (pid :: acc)
  in
  go (Prng.make seed) len []

let rec build_ref = function
  | T_round_robin -> Schedule_ref.round_robin
  | T_solo p -> Schedule_ref.solo p
  | T_script ps -> Schedule_ref.script ps
  | T_drawn (seed, n, len) -> Schedule_ref.script (draws seed ~n ~len)
  | T_random seed -> Schedule_ref.random ~seed
  | T_among (procs, seed) -> Schedule_ref.among ~procs ~seed
  | T_phased (prefix_len, a, b) ->
    Schedule_ref.phased ~prefix_len ~prefix:(build_ref a) ~suffix:(build_ref b)
  | T_crashes (cs, a) -> Schedule_ref.with_crashes cs (build_ref a)
  | T_fn s -> Schedule_ref.fn (fn_of s)

(* Live sets are drawn from pids 0..4; the trees also name pids -2..5,
   drawn scripts pids up to 6, crash limits run from -1 and prefix
   lengths from -2. *)
let gen_tree g =
  let int n = Random.State.int g n in
  let pids k = List.init (int k) (fun _ -> int 7 - 1) in
  let rec gen depth =
    match int (if depth = 0 then 6 else 9) with
    | 0 -> T_round_robin
    | 1 -> T_solo (int 5)
    | 2 -> T_script (pids 12)
    | 3 -> T_random (int 1000)
    | 4 -> T_fn (int 1000)
    | 5 -> T_drawn (int 1000, 1 + int 7, int 40)
    | 6 -> T_among (pids 4, int 1000)
    | 7 -> T_phased (int 9 - 2, gen (depth - 1), gen (depth - 1))
    | _ ->
      let cs = List.init (int 6) (fun _ -> (int 7 - 2, int 6 - 1)) in
      T_crashes (cs, gen (depth - 1))
  in
  gen 3

let gen_live g =
  match List.filter (fun _ -> Random.State.bool g) [ 0; 1; 2; 3; 4 ] with
  | [] -> [ Random.State.int g 5 ]
  | live -> live

(* Every decision over [lives], up to and including exhaustion. *)
let rec decisions next s = function
  | [] -> []
  | live :: rest -> (
    match next s ~live with
    | None -> [ None ]
    | Some (pid, s') -> Some pid :: decisions next s' rest)

let rec after next s lives k =
  match lives with
  | live :: rest when k > 0 -> (
    match next s ~live with
    | None -> None
    | Some (_, s') -> after next s' rest (k - 1))
  | _ -> Some s

(* Whether a script run over [lives] passes over an entry that is not
   live. *)
let rec skips script lives =
  match (script, lives) with
  | [], _ | _, [] -> false
  | pid :: rest, live :: more -> (not (List.mem pid live)) || skips rest more

let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t

let rec has_feature p t =
  p t
  ||
  match t with
  | T_phased (_, a, b) -> has_feature p a || has_feature p b
  | T_crashes (_, a) -> has_feature p a
  | T_round_robin | T_solo _ | T_script _ | T_drawn _ | T_random _ | T_among _
  | T_fn _ ->
    false

let test_schedule_matches_reference () =
  let g = Random.State.make [| 15 |] in
  let dup = ref 0 and neg = ref 0 and short = ref 0 and outside = ref 0 in
  let skipped = ref 0 and exhausted = ref 0 and replayed = ref 0 in
  for case = 1 to 5000 do
    let tree = gen_tree g in
    let lives = List.init 30 (fun _ -> gen_live g) in
    let want = decisions Schedule_ref.next (build_ref tree) lives in
    let sched = build_new tree in
    let got = decisions Schedule.next sched lives in
    if got <> want then Alcotest.failf "case %d: decisions differ" case;
    (* A state saved midway replays the same decisions after the run
       went on from it: schedules are values. *)
    let k = Random.State.int g 15 in
    (match after Schedule.next sched lives k with
    | None -> ()
    | Some saved ->
      if decisions Schedule.next saved (drop k lives) <> drop k got then
        Alcotest.failf "case %d: replay from step %d differs" case k;
      (match tree with T_drawn _ when k > 0 -> incr replayed | _ -> ()));
    (* A drawn script on its own: whether it skipped a pid that was not
       live, and whether it ran out. *)
    (match tree with
    | T_drawn (seed, n, len) ->
      if skips (draws seed ~n ~len) lives then incr skipped;
      if List.mem None got && len > 0 then incr exhausted
    | _ -> ());
    let count r p = if has_feature p tree then incr r in
    count dup (function
      | T_crashes (cs, _) ->
        List.exists
          (fun (p, l) -> List.exists (fun (p', l') -> p = p' && l <> l') cs)
          cs
      | _ -> false);
    count neg (function
      | T_crashes (cs, _) -> List.exists (fun (p, _) -> p < 0) cs
      | _ -> false);
    count short (function T_phased (len, _, _) -> len <= 0 | _ -> false);
    count outside (function
      | T_among (procs, _) -> List.exists (fun p -> p < 0 || p > 4) procs
      | _ -> false)
  done;
  (* The corpus must reach the corner cases, or the comparison proves
     little. *)
  Alcotest.(check bool)
    (Printf.sprintf "duplicate (%d) and negative (%d) crash pids, short \
                     prefixes (%d), foreign among pids (%d)"
       !dup !neg !short !outside)
    true
    (!dup > 200 && !neg > 200 && !short > 200 && !outside > 200);
  Alcotest.(check bool)
    (Printf.sprintf "drawn scripts that skip (%d), run out (%d) and replay \
                     from a saved successor (%d)"
       !skipped !exhausted !replayed)
    true
    (!skipped > 200 && !exhausted > 200 && !replayed > 100)

let test_run_all_done () =
  let procs = [ writer ~slot:0 ~input:(Value.Int 1); writer ~slot:1 ~input:(Value.Int 2) ] in
  let c = Run.init ~m:2 procs in
  let c', outcome = Run.run ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "all done" true (outcome = Run.All_done);
  Alcotest.(check int) "two outputs" 2 (List.length (Run.outputs c'));
  Alcotest.(check bool) "mem has values" true
    (Value.equal (Snapshot.get (Run.mem c') 0) (Value.Int 1));
  let trace = Run.trace c' in
  Alcotest.(check int) "6 events" 6 (List.length trace)

let test_run_step_limit () =
  let c = Run.init ~m:1 [ spinner ] in
  let _, outcome = Run.run ~max_steps:50 ~sched:Schedule.round_robin c in
  Alcotest.(check bool) "hits limit" true (outcome = Run.Step_limit)

let test_run_rejects_broken () =
  Alcotest.(check bool) "broken protocol rejected" true
    (try
       ignore (Run.init ~m:1 [ broken ]);
       false
     with Failure _ -> true)

let test_solo_terminates () =
  let c = Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); spinner ] in
  Alcotest.(check bool) "writer solo-terminates" true (Run.solo_terminates c 0);
  Alcotest.(check bool) "spinner does not" false
    (Run.solo_terminates ~max_steps:100 c 1)

let test_obstruction_free_from () =
  let c =
    Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); writer ~slot:1 ~input:(Value.Int 2) ]
  in
  Alcotest.(check bool) "both terminate" true
    (Run.obstruction_free_from c ~procs:[ 0; 1 ]);
  let c2 = Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); spinner ] in
  Alcotest.(check bool) "spinner blocks the pair" false
    (Run.obstruction_free_from ~max_steps:200 c2 ~procs:[ 0; 1 ])

let test_objects () =
  let open Objects in
  (match apply Register Value.Bot (Write (Value.Int 3)) with
  | Ok (v, _) -> Alcotest.(check bool) "write" true (Value.equal v (Value.Int 3))
  | Error e -> Alcotest.fail e);
  (match apply Max_register (Value.Int 5) (Write_max (Value.Int 3)) with
  | Ok (v, _) -> Alcotest.(check bool) "writemax keeps max" true (Value.equal v (Value.Int 5))
  | Error e -> Alcotest.fail e);
  (match apply Fetch_and_increment (Value.Int 7) Fetch_inc with
  | Ok (v, r) ->
    Alcotest.(check bool) "fai incremented" true (Value.equal v (Value.Int 8));
    Alcotest.(check bool) "fai returns old" true (Value.equal r (Value.Int 7))
  | Error e -> Alcotest.fail e);
  (match apply Swap (Value.Int 1) (Swap_write (Value.Int 2)) with
  | Ok (v, r) ->
    Alcotest.(check bool) "swap state" true (Value.equal v (Value.Int 2));
    Alcotest.(check bool) "swap old" true (Value.equal r (Value.Int 1))
  | Error e -> Alcotest.fail e);
  (match apply Compare_and_swap (Value.Int 1) (Cas { expected = Value.Int 1; desired = Value.Int 9 }) with
  | Ok (v, r) ->
    Alcotest.(check bool) "cas success state" true (Value.equal v (Value.Int 9));
    Alcotest.(check bool) "cas success resp" true (Value.equal r (Value.Bool true))
  | Error e -> Alcotest.fail e);
  (match apply Compare_and_swap (Value.Int 2) (Cas { expected = Value.Int 1; desired = Value.Int 9 }) with
  | Ok (v, r) ->
    Alcotest.(check bool) "cas fail state" true (Value.equal v (Value.Int 2));
    Alcotest.(check bool) "cas fail resp" true (Value.equal r (Value.Bool false))
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "register unsupported op" true
    (Result.is_error (apply Register Value.Bot Fetch_inc));
  Alcotest.(check bool) "fai initial" true
    (Value.equal (initial Fetch_and_increment) (Value.Int 0));
  Alcotest.(check bool) "register can aba" true (can_aba Register);
  Alcotest.(check bool) "maxreg cannot aba" false (can_aba Max_register)

(* ---- Exec: indistinguishability and the covering argument ---- *)

let test_indistinguishable_basics () =
  let mk () = Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); writer ~slot:1 ~input:(Value.Int 2) ] in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "fresh configs indistinguishable" true
    (Exec.indistinguishable a b ~procs:[ 0; 1 ]);
  let a' = Run.step_pid a 0 in
  (* p0 scanned: memory unchanged, p0 now poised to update *)
  Alcotest.(check bool) "p0 distinguishes" false
    (Exec.indistinguishable a' b ~procs:[ 0 ]);
  Alcotest.(check bool) "p1 cannot distinguish" true
    (Exec.indistinguishable a' b ~procs:[ 1 ])

let test_covering_detection () =
  let c = Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); writer ~slot:1 ~input:(Value.Int 2) ] in
  Alcotest.(check (list int)) "nobody covering yet" [] (Exec.covering c 0);
  let c = Run.step_pid c 0 in
  Alcotest.(check (list int)) "p0 covers slot 0" [ 0 ] (Exec.covering c 0);
  Alcotest.(check (list int)) "slot 1 uncovered" [] (Exec.covering c 1)

let test_block_write () =
  let c = Run.init ~m:2 [ writer ~slot:0 ~input:(Value.Int 1); writer ~slot:1 ~input:(Value.Int 2) ] in
  let c = Run.step_pid (Run.step_pid c 0) 1 in
  (* both covering *)
  let c' = Exec.block_write c [ 0; 1 ] in
  Alcotest.(check bool) "both written" true
    (Value.equal (Snapshot.get (Run.mem c') 0) (Value.Int 1)
    && Value.equal (Snapshot.get (Run.mem c') 1) (Value.Int 2));
  Alcotest.check_raises "non-covering pid rejected"
    (Invalid_argument "Exec.block_write: process 0 is not covering") (fun () ->
      ignore (Exec.block_write c' [ 0 ]))

let test_covering_argument_replay () =
  (* The covering argument of the consensus lower bound, executed: after
     p1's stale (covering) write obliterates the single register, the
     configuration is indistinguishable TO P1 from one in which p0 never
     ran — so p1's solo run transfers and decides its own value, while
     p0 already decided differently. *)
  let procs () =
    List.mapi
      (fun pid inp -> (Rsim_protocols.Racing.protocol ~m:1 ()) pid inp)
      [ Value.Int 1; Value.Int 2 ]
  in
  (* World A: p1 scans, p0 runs to a decision, p1's stale write lands. *)
  let a = Run.step_pid (Run.init ~m:1 (procs ())) 1 in
  let a, _ = Run.run ~max_steps:1_000 ~sched:(Schedule.solo 0) a in
  Alcotest.(check bool) "p0 decided 1" true
    (Run.outputs a |> List.assoc_opt 0 = Some (Value.Int 1));
  let a = Exec.block_write a [ 1 ] in
  (* World B: p1 scans and writes with p0 asleep. *)
  let b = Run.step_pid (Run.init ~m:1 (procs ())) 1 in
  let b = Exec.block_write b [ 1 ] in
  Alcotest.(check bool) "worlds indistinguishable to p1" true
    (Exec.indistinguishable a b ~procs:[ 1 ]);
  (* p1's solo run transfers between the worlds... *)
  let a', b' = Exec.transfer ~from_:a ~to_:b ~procs:[ 1 ] [ 1; 1; 1; 1; 1; 1; 1; 1 ] in
  ignore b';
  (* ...and in world A it produces the disagreement the lower bound
     promises. *)
  let a', _ = Run.run ~max_steps:1_000 ~sched:(Schedule.solo 1) a' in
  Alcotest.(check bool) "p1 decided 2" true
    (Run.outputs a' |> List.assoc_opt 1 = Some (Value.Int 2));
  Alcotest.(check int) "two distinct decisions" 2
    (List.length (Value.distinct (List.map snd (Run.outputs a'))))

(* qcheck: a random run under a random schedule keeps every written value
   equal to some process input (memory safety of the engine). *)
let prop_run_values_from_inputs =
  QCheck.Test.make ~name:"run: memory holds only written inputs" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 5))
    (fun (seed, n) ->
      let procs = List.init n (fun i -> writer ~slot:i ~input:(Value.Int (100 + i))) in
      let c = Run.init ~m:n procs in
      let c', _ = Run.run ~sched:(Schedule.random ~seed) c in
      let mem = Run.mem c' in
      List.for_all
        (fun j ->
          let x = Snapshot.get mem j in
          Value.is_bot x || Value.equal x (Value.Int (100 + j)))
        (List.init n Fun.id))

let prop_run_deterministic =
  QCheck.Test.make ~name:"run: deterministic given seed" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let mk () =
        Run.init ~m:3
          [ writer ~slot:0 ~input:(Value.Int 1);
            writer ~slot:1 ~input:(Value.Int 2);
            writer ~slot:2 ~input:(Value.Int 3) ]
      in
      let c1, _ = Run.run ~sched:(Schedule.random ~seed) (mk ()) in
      let c2, _ = Run.run ~sched:(Schedule.random ~seed) (mk ()) in
      List.map (fun (e : Run.event) -> (e.pid, e.idx)) (Run.trace c1)
      = List.map (fun (e : Run.event) -> (e.pid, e.idx)) (Run.trace c2))

let () =
  Alcotest.run "shmem"
    [
      ( "proc",
        [
          Alcotest.test_case "basics" `Quick test_proc_basics;
          Alcotest.test_case "wrong step raises" `Quick test_proc_wrong_step;
        ] );
      ("snapshot", [ Alcotest.test_case "persistent ops" `Quick test_snapshot ]);
      ( "schedule",
        [
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "solo and script" `Quick test_schedule_solo_script;
          Alcotest.test_case "random deterministic" `Quick test_schedule_random_deterministic;
          Alcotest.test_case "among" `Quick test_schedule_among;
          Alcotest.test_case "crashes" `Quick test_schedule_crashes;
          Alcotest.test_case "matches the reference schedules" `Quick
            test_schedule_matches_reference;
        ] );
      ( "run",
        [
          Alcotest.test_case "all done" `Quick test_run_all_done;
          Alcotest.test_case "step limit" `Quick test_run_step_limit;
          Alcotest.test_case "rejects broken protocol" `Quick test_run_rejects_broken;
          Alcotest.test_case "solo termination" `Quick test_solo_terminates;
          Alcotest.test_case "obstruction-free from" `Quick test_obstruction_free_from;
        ] );
      ("objects", [ Alcotest.test_case "semantics" `Quick test_objects ]);
      ( "exec",
        [
          Alcotest.test_case "indistinguishability" `Quick
            test_indistinguishable_basics;
          Alcotest.test_case "covering detection" `Quick test_covering_detection;
          Alcotest.test_case "block write" `Quick test_block_write;
          Alcotest.test_case "covering argument replay" `Quick
            test_covering_argument_replay;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_run_values_from_inputs; prop_run_deterministic ] );
    ]
