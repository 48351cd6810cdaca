open Rsim_value
open Rsim_shmem

(* Sequential spec of a single register. *)
type reg_op = R | W of Value.t

let reg_spec : (Value.t, reg_op) Linearize.spec =
  {
    init = Value.Bot;
    apply =
      (fun st op ->
        match op with R -> (st, st) | W v -> (v, Value.Bot));
  }

let e = Linearize.entry

let test_sequential_ok () =
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:1 ();
      e ~proc:0 ~op:R ~inv:2 ~ret:3 ~res:(Value.Int 1) ();
    ]
  in
  Alcotest.(check bool) "sequential read-your-write" true (Linearize.check reg_spec h)

let test_sequential_bad () =
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:1 ();
      e ~proc:0 ~op:R ~inv:2 ~ret:3 ~res:(Value.Int 2) ();
    ]
  in
  Alcotest.(check bool) "wrong read rejected" false (Linearize.check reg_spec h)

let test_concurrent_flexible () =
  (* Write concurrent with a read: the read may see old or new value. *)
  let old_read =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:10 ();
      e ~proc:1 ~op:R ~inv:1 ~ret:2 ~res:Value.Bot ();
    ]
  in
  let new_read =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:10 ();
      e ~proc:1 ~op:R ~inv:1 ~ret:2 ~res:(Value.Int 1) ();
    ]
  in
  Alcotest.(check bool) "concurrent read old" true (Linearize.check reg_spec old_read);
  Alcotest.(check bool) "concurrent read new" true (Linearize.check reg_spec new_read)

let test_realtime_order_respected () =
  (* Read completes before the write starts: must return Bot. *)
  let h =
    [
      e ~proc:1 ~op:R ~inv:0 ~ret:1 ~res:(Value.Int 1) ();
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:2 ~ret:3 ();
    ]
  in
  Alcotest.(check bool) "future write not visible" false (Linearize.check reg_spec h)

let test_new_old_inversion () =
  (* The classic non-linearizable history: two sequential reads see
     new-then-old. *)
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:20 ();
      e ~proc:1 ~op:R ~inv:1 ~ret:2 ~res:(Value.Int 1) ();
      e ~proc:1 ~op:R ~inv:3 ~ret:4 ~res:Value.Bot ();
    ]
  in
  Alcotest.(check bool) "new/old inversion rejected" false (Linearize.check reg_spec h)

let test_pending_can_take_effect () =
  (* A pending write may be linearized to justify a read. *)
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 7)) ~inv:0 ();
      e ~proc:1 ~op:R ~inv:1 ~ret:2 ~res:(Value.Int 7) ();
    ]
  in
  Alcotest.(check bool) "pending write visible" true (Linearize.check reg_spec h)

let test_pending_can_be_dropped () =
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 7)) ~inv:0 ();
      e ~proc:1 ~op:R ~inv:1 ~ret:2 ~res:Value.Bot ();
    ]
  in
  Alcotest.(check bool) "pending write droppable" true (Linearize.check reg_spec h)

let test_linearization_witness () =
  let h =
    [
      e ~proc:0 ~op:(W (Value.Int 1)) ~inv:0 ~ret:1 ();
      e ~proc:1 ~op:R ~inv:2 ~ret:3 ~res:(Value.Int 1) ();
    ]
  in
  match Linearize.linearization reg_spec h with
  | Some order ->
    Alcotest.(check int) "both ops in witness" 2 (List.length order);
    (match order with
    | first :: _ ->
      Alcotest.(check int) "write first" 0 first.Linearize.proc
    | [] -> Alcotest.fail "empty witness")
  | None -> Alcotest.fail "expected linearizable"

let test_entry_validation () =
  Alcotest.check_raises "ret <= inv rejected"
    (Invalid_argument "Linearize.entry: ret must be > inv") (fun () ->
      ignore (e ~proc:0 ~op:R ~inv:5 ~ret:5 ()))

(* Snapshot spec: m-component object with update/scan, for cross-checking
   richer histories. *)
type snap_op = Upd of int * Value.t | Sc

let snap_spec m : (Value.t array, snap_op) Linearize.spec =
  {
    init = Array.make m Value.Bot;
    apply =
      (fun st op ->
        match op with
        | Upd (j, v) ->
          let st' = Array.copy st in
          st'.(j) <- v;
          (st', Value.Bot)
        | Sc -> (st, Value.List (Array.to_list st)));
  }

let test_snapshot_history () =
  let view l = Value.List l in
  let h =
    [
      e ~proc:0 ~op:(Upd (0, Value.Int 1)) ~inv:0 ~ret:1 ();
      e ~proc:1 ~op:(Upd (1, Value.Int 2)) ~inv:2 ~ret:3 ();
      e ~proc:2 ~op:Sc ~inv:4 ~ret:5 ~res:(view [ Value.Int 1; Value.Int 2 ]) ();
    ]
  in
  Alcotest.(check bool) "snapshot history ok" true (Linearize.check (snap_spec 2) h);
  let bad =
    [
      e ~proc:0 ~op:(Upd (0, Value.Int 1)) ~inv:0 ~ret:1 ();
      e ~proc:2 ~op:Sc ~inv:2 ~ret:3 ~res:(view [ Value.Bot; Value.Bot ]) ();
    ]
  in
  Alcotest.(check bool) "stale snapshot rejected" false
    (Linearize.check (snap_spec 2) bad)

(* Partial sequential spec: a stack whose pop is not applicable on an
   empty stack ([apply] raises). Exercises the checker's handling of
   operations that are inapplicable at a linearization point — pending
   ops must then be droppable rather than wedge the search. *)
type stack_op = Push of int | Pop

let stack_spec : (int list, stack_op) Linearize.spec =
  {
    init = [];
    apply =
      (fun st op ->
        match (op, st) with
        | Push v, _ -> (v :: st, Value.Bot)
        | Pop, v :: st' -> (st', Value.Int v)
        | Pop, [] -> failwith "pop on empty stack");
  }

let test_pending_must_be_dropped () =
  (* push 1; pop -> 1; then a pending pop invoked after the stack is
     empty again. No extension can linearize that pop (it is never
     applicable), so the history is linearizable only because a pending
     operation may also be DROPPED. Regression: the checker used to let
     [apply] exceptions escape instead of treating the op as
     non-linearizable at that point. *)
  let h =
    [
      e ~proc:0 ~op:(Push 1) ~inv:0 ~ret:1 ();
      e ~proc:0 ~op:Pop ~inv:2 ~ret:3 ~res:(Value.Int 1) ();
      e ~proc:1 ~op:Pop ~inv:4 ();
    ]
  in
  Alcotest.(check bool) "inapplicable pending pop dropped" true
    (Linearize.check stack_spec h)

let test_partial_spec_rejects_completed () =
  (* A COMPLETED pop on a forever-empty stack can never linearize. *)
  let h = [ e ~proc:0 ~op:Pop ~inv:0 ~ret:1 ~res:(Value.Int 1) () ] in
  Alcotest.(check bool) "completed pop on empty rejected" false
    (Linearize.check stack_spec h);
  (* ... but with a concurrent pending push it can. *)
  let h' =
    [
      e ~proc:1 ~op:(Push 1) ~inv:0 ();
      e ~proc:0 ~op:Pop ~inv:1 ~ret:2 ~res:(Value.Int 1) ();
    ]
  in
  Alcotest.(check bool) "pop justified by pending push" true
    (Linearize.check stack_spec h')

(* qcheck: histories generated from an actual sequential execution are
   always linearizable. *)
let prop_generated_histories_linearizable =
  QCheck.Test.make ~name:"sequentially-generated histories linearizable" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let open Rsim_value in
      let g = ref (Prng.make seed) in
      let draw n =
        let k, g' = Prng.int !g n in
        g := g';
        k
      in
      (* Generate a random sequential execution on one register and emit a
         history with each op occupying its own time slot. *)
      let st = ref Value.Bot in
      let t = ref 0 in
      let entries = ref [] in
      for _ = 1 to 8 do
        let inv = !t in
        let ret = !t + 1 in
        t := !t + 2;
        if draw 2 = 0 then begin
          let v = Value.Int (draw 5) in
          st := v;
          entries := e ~proc:(draw 3) ~op:(W v) ~inv ~ret () :: !entries
        end
        else entries := e ~proc:(draw 3) ~op:R ~inv ~ret ~res:!st () :: !entries
      done;
      Linearize.check reg_spec (List.rev !entries))

(* ---- the bitmask search against the list-based reference ---- *)

(* Random overlapping histories of up to 8 operations, a quarter of
   them pending, with responses drawn independently of any sequential
   run, so that many histories are not linearizable. *)
let random_history draw mk_op =
  List.init (draw 9) (fun _ ->
      let inv = draw 20 in
      let op, res = mk_op () in
      if draw 4 = 0 then e ~proc:(draw 4) ~op ~inv ()
      else e ~proc:(draw 4) ~op ~inv ~ret:(inv + 1 + draw 6) ?res ())

let test_matches_reference () =
  let g = ref (Rsim_value.Prng.make 0x11e4) in
  let draw n =
    let k, g' = Rsim_value.Prng.int !g n in
    g := g';
    k
  in
  let value () = if draw 4 = 0 then Value.Bot else Value.Int (draw 3) in
  let reg_op () =
    if draw 2 = 0 then (W (Value.Int (draw 3)), None) else (R, Some (value ()))
  in
  let stack_op () =
    if draw 2 = 0 then (Push (draw 3), None) else (Pop, Some (value ()))
  in
  let compared = ref 0 and linearizable = ref 0 and mismatches = ref 0 in
  let compare spec h =
    let got = Linearize.linearization spec h in
    incr compared;
    if Option.is_some got then incr linearizable;
    let want = Linearize_ref.linearization spec h in
    if not (Linearize_ref.same_witness got want) then incr mismatches
  in
  for _ = 1 to 10_000 do
    compare reg_spec (random_history draw reg_op);
    (* [apply] raises on a pop of the empty stack *)
    compare stack_spec (random_history draw stack_op)
  done;
  Alcotest.(check int)
    (Printf.sprintf "same witness on %d histories (%d linearizable)"
       !compared !linearizable)
    0 !mismatches;
  Alcotest.(check bool) "both verdicts occur" true
    (!linearizable > 0 && !linearizable < !compared)

let test_entry_limit () =
  let h n = List.init n (fun i -> e ~proc:0 ~op:R ~inv:(2 * i) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%d pending reads linearize" Sys.int_size)
    true
    (Linearize.check reg_spec (h Sys.int_size));
  Alcotest.check_raises "one more entry than an int has bits"
    (Invalid_argument
       "Linearize.linearization: more entries than an int has bits")
    (fun () -> ignore (Linearize.check reg_spec (h (Sys.int_size + 1))))

let () =
  Alcotest.run "linearize"
    [
      ( "register",
        [
          Alcotest.test_case "sequential ok" `Quick test_sequential_ok;
          Alcotest.test_case "sequential bad" `Quick test_sequential_bad;
          Alcotest.test_case "concurrent flexible" `Quick test_concurrent_flexible;
          Alcotest.test_case "real-time order" `Quick test_realtime_order_respected;
          Alcotest.test_case "new/old inversion" `Quick test_new_old_inversion;
          Alcotest.test_case "pending takes effect" `Quick test_pending_can_take_effect;
          Alcotest.test_case "pending dropped" `Quick test_pending_can_be_dropped;
          Alcotest.test_case "witness" `Quick test_linearization_witness;
          Alcotest.test_case "entry validation" `Quick test_entry_validation;
        ] );
      ("snapshot", [ Alcotest.test_case "histories" `Quick test_snapshot_history ]);
      ( "partial specs",
        [
          Alcotest.test_case "pending must be dropped" `Quick
            test_pending_must_be_dropped;
          Alcotest.test_case "inapplicable completed op" `Quick
            test_partial_spec_rejects_completed;
        ] );
      ( "reference",
        [
          Alcotest.test_case "matches the list search" `Quick
            test_matches_reference;
          Alcotest.test_case "entry limit" `Quick test_entry_limit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_generated_histories_linearizable ]
      );
    ]
