open Rsim_value
open Rsim_shmem
open Rsim_regsnap

module P = Regsnap.Prog

let ( let* ) = P.bind

let no_failures (result : P.result) =
  Array.iter
    (function
      | Rsim_runtime.Prog.Failed e -> raise e
      | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending
      | Rsim_runtime.Prog.Crashed -> ())
    result.statuses

(* Run one program per process over a fresh snapshot. *)
let with_snap ~f ~sched programs =
  let t = Regsnap.create ~f in
  let result =
    let r =
      P.start ~max_ops:100_000 ~apply:(Regsnap.apply t) ~emit:(Regsnap.record t)
        programs
    in
    P.run ~sched r;
    P.current r
  in
  no_failures result;
  (t, result)

(* [k] updates of this process's component to [v 1 .. v k], or [k]
   scans. *)
let updates ~f ~me k v =
  let rec go i now =
    if i > k then P.return ()
    else
      let* now = Regsnap.update ~f ~me ~now (v i) in
      go (i + 1) now
  in
  go 1 0

let scans ~f ~me k =
  let rec go i now =
    if i > k then P.return ()
    else
      let* _, now = Regsnap.scan ~f ~me ~now in
      go (i + 1) now
  in
  go 1 0

let idle = P.return ()

let test_solo () =
  let seen = ref [||] in
  let _ =
    with_snap ~f:2 ~sched:Schedule.round_robin
      [
        (let* now = Regsnap.update ~f:2 ~me:0 ~now:0 (Value.Int 5) in
         let* view, _ = Regsnap.scan ~f:2 ~me:0 ~now in
         seen := view;
         P.return ());
        idle;
      ]
  in
  Alcotest.(check bool) "own component visible" true
    (Value.equal !seen.(0) (Value.Int 5));
  Alcotest.(check bool) "other still bot" true (Value.is_bot !seen.(1))

let test_cross_visibility () =
  let seen = ref [||] in
  let _t, _ =
    with_snap ~f:2 ~sched:(Schedule.script (List.init 20 (fun i -> i mod 2)))
      [
        updates ~f:2 ~me:0 1 (fun _ -> Value.Int 1);
        (let* now = Regsnap.update ~f:2 ~me:1 ~now:0 (Value.Int 2) in
         let* view, _ = Regsnap.scan ~f:2 ~me:1 ~now in
         seen := view;
         P.return ());
      ]
  in
  Alcotest.(check bool) "sees own" true (Value.equal !seen.(1) (Value.Int 2))

let test_wait_free_scan_bound () =
  (* Even with all processes updating continuously, every scan finishes
     within (f+2)·f register steps. *)
  List.iter
    (fun seed ->
      let f = 3 in
      let _t, result =
        with_snap ~f ~sched:(Schedule.random ~seed)
          [
            updates ~f ~me:0 5 (fun i -> Value.Int i);
            updates ~f ~me:1 5 (fun i -> Value.Int i);
            scans ~f ~me:2 5;
          ]
      in
      ignore result)
    (List.init 20 Fun.id);
  (* per-scan step bound asserted via history intervals *)
  let f = 3 in
  let t, _ =
    with_snap ~f ~sched:(Schedule.random ~seed:7)
      [
        updates ~f ~me:0 8 (fun i -> Value.Int i);
        updates ~f ~me:1 8 (fun i -> Value.Int i);
        scans ~f ~me:2 8;
      ]
  in
  List.iter
    (function
      | Regsnap.Scan_op { n_ops; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "scan took %d own steps within bound %d" n_ops
             (Regsnap.scan_step_bound ~f))
          true
          (n_ops <= Regsnap.scan_step_bound ~f)
      | Regsnap.Update_op { n_ops; _ } ->
        Alcotest.(check bool) "update within bound" true
          (n_ops <= Regsnap.scan_step_bound ~f + 2))
    (Regsnap.history t)

let test_borrowed_scans_happen () =
  (* Under interleaved updates, some scan should borrow an embedded
     view. *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 100 do
    let t, _ =
      with_snap ~f:3 ~sched:(Schedule.random ~seed:!seed)
        [
          updates ~f:3 ~me:0 6 (fun i -> Value.Int i);
          updates ~f:3 ~me:1 6 (fun i -> Value.Int (10 + i));
          scans ~f:3 ~me:2 6;
        ]
    in
    if
      List.exists
        (function
          | Regsnap.Scan_op { borrowed = true; _ } -> true
          | _ -> false)
        (Regsnap.history t)
    then found := true;
    incr seed
  done;
  Alcotest.(check bool) "borrowed scan observed within 100 schedules" true !found

let test_single_writer_enforced () =
  let t = Regsnap.create ~f:2 in
  Alcotest.(check bool) "wrong-pid write rejected" true
    (try
       ignore (Regsnap.apply t ~pid:1 (Regsnap.Ops.Write (0, Value.Bot)));
       false
     with Failure _ -> true)

(* ---- linearizability against the sequential snapshot spec ---- *)

type snap_op = Up of int * Value.t | Sc

let snap_spec f : (Value.t array, snap_op) Linearize.spec =
  {
    init = Array.make f Value.Bot;
    apply =
      (fun st op ->
        match op with
        | Up (i, v) ->
          let st' = Array.copy st in
          st'.(i) <- v;
          (st', Value.Bot)
        | Sc -> (st, Value.List (Array.to_list st)));
  }

let entries_of_history hops =
  List.map
    (fun hop ->
      match hop with
      | Regsnap.Update_op { proc; value; inv; ret; _ } ->
        Linearize.entry ~proc ~op:(Up (proc, value)) ~inv ~ret ()
      | Regsnap.Scan_op { proc; view; inv; ret; _ } ->
        Linearize.entry ~proc ~op:Sc ~inv ~ret
          ~res:(Value.List (Array.to_list view))
          ())
    hops

(* [ops_per] operations per process, each an update (of a value below
   10) or a scan, drawn from a per-process PRNG. *)
let random_programs ~f ~seed ~ops_per =
  List.init f (fun me ->
      let rec go g k now =
        if k = 0 then P.return ()
        else
          let c, g = Prng.int g 2 in
          if c = 0 then
            let v, g = Prng.int g 10 in
            let* now = Regsnap.update ~f ~me ~now (Value.Int v) in
            go g (k - 1) now
          else
            let* _, now = Regsnap.scan ~f ~me ~now in
            go g (k - 1) now
      in
      go (Prng.make (seed + (77 * me))) ops_per 0)

let random_history ~f ~seed ~ops_per =
  let t, _ =
    with_snap ~f ~sched:(Schedule.random ~seed) (random_programs ~f ~seed ~ops_per)
  in
  Regsnap.history t

let test_linearizable_fixed () =
  List.iter
    (fun seed ->
      let hist = random_history ~f:2 ~seed ~ops_per:3 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d linearizable" seed)
        true
        (Linearize.check (snap_spec 2) (entries_of_history hist)))
    (List.init 30 Fun.id)

let prop_linearizable =
  QCheck.Test.make ~name:"regsnap histories linearizable" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 3))
    (fun (seed, f) ->
      let hist = random_history ~f ~seed ~ops_per:3 in
      Linearize.check (snap_spec f) (entries_of_history hist))

let prop_deterministic =
  QCheck.Test.make ~name:"regsnap runs deterministic" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let h1 = random_history ~f:3 ~seed ~ops_per:3 in
      let h2 = random_history ~f:3 ~seed ~ops_per:3 in
      h1 = h2)

(* Statuses, schedules and histories of random runs, pinned by digests
   recorded when the processes were direct-style fibers: a digest that
   moves is a change of behaviour. *)
let test_golden () =
  let show_status = function
    | Rsim_runtime.Prog.Done -> "done"
    | Rsim_runtime.Prog.Pending -> "pending"
    | Rsim_runtime.Prog.Crashed -> "crashed"
    | Rsim_runtime.Prog.Failed e -> "failed " ^ Printexc.to_string e
  in
  let show_hop = function
    | Regsnap.Update_op { proc; value; inv; ret; n_ops } ->
      Printf.sprintf "U%d=%s[%d,%d]%d" proc (Value.show value) inv ret n_ops
    | Regsnap.Scan_op { proc; view; inv; ret; borrowed; n_ops } ->
      Printf.sprintf "S%d=%s[%d,%d]%b%d" proc
        (String.concat "," (Array.to_list (Array.map Value.show view)))
        inv ret borrowed n_ops
  in
  List.iter
    (fun (f, want) ->
      let b = Buffer.create 65536 in
      for seed = 0 to 29 do
        let t, result =
          with_snap ~f ~sched:(Schedule.random ~seed)
            (random_programs ~f ~seed ~ops_per:3)
        in
        Buffer.add_string b
          (String.concat " " (Array.to_list (Array.map show_status result.statuses)));
        Buffer.add_string b
          (String.concat " "
             (List.map (fun (e : P.trace_entry) -> string_of_int e.pid) result.trace));
        Buffer.add_string b (String.concat " " (List.map show_hop (Regsnap.history t)));
        Buffer.add_char b '\n'
      done;
      Alcotest.(check string) (Printf.sprintf "f=%d" f) want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (2, "c19104da2f4b13437291b3016c34647d");
      (3, "3fbcc6891c308afd313493c61a2b54c6");
      (4, "2b2b0e9ed38412b1c50086ba524f5ff3");
    ]

let () =
  Alcotest.run "regsnap"
    [
      ( "behaviour",
        [
          Alcotest.test_case "solo" `Quick test_solo;
          Alcotest.test_case "cross visibility" `Quick test_cross_visibility;
          Alcotest.test_case "wait-free scan bound" `Quick test_wait_free_scan_bound;
          Alcotest.test_case "borrowed scans happen" `Quick test_borrowed_scans_happen;
          Alcotest.test_case "single-writer enforced" `Quick
            test_single_writer_enforced;
          Alcotest.test_case "golden" `Quick test_golden;
        ] );
      ( "linearizability",
        [ Alcotest.test_case "30 fixed seeds" `Quick test_linearizable_fixed ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_linearizable; prop_deterministic ]
      );
    ]
