open Rsim_faults
open Rsim_augmented

(* ---- the profile grammar ---- *)

let roundtrip s =
  match Faults.of_string (Faults.to_string s) with
  | Ok s' -> s'
  | Error e -> Alcotest.failf "profile %S failed to parse back: %s" (Faults.to_string s) e

let test_grammar_roundtrip () =
  let profile =
    [
      { Faults.pid = 0; at_op = 3; action = Faults.Crash };
      { Faults.pid = 1; at_op = 0; action = Faults.Restart { delay = 5 } };
      { Faults.pid = 0; at_op = 9; action = Faults.Drop };
      { Faults.pid = 1; at_op = 4; action = Faults.Corrupt { seed = 77 } };
    ]
  in
  Alcotest.(check bool) "to_string . of_string is the identity" true
    (roundtrip profile = profile)

let test_grammar_empty () =
  Alcotest.(check bool) "empty string" true (Faults.of_string "" = Ok []);
  Alcotest.(check bool) "none" true (Faults.of_string "none" = Ok []);
  Alcotest.(check bool) "empty profile prints as none" true
    (Faults.to_string [] = "none")

let test_grammar_rejects_garbage () =
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Ok _ -> Alcotest.failf "garbage profile %S parsed" s
      | Error _ -> ())
    [ "crash"; "crash@"; "crash@x:1"; "corrupt@0:1"; "restart@0:1"; "frob@0:1";
      "crash@0:1,," ]

(* A process fault is a crash, and hiding a process is a schedule:
   there is no injected exception and no stall, so raise and stall specs
   are refused as unknown kinds. *)
let test_grammar_rejects_deleted_kinds () =
  List.iter
    (fun (kind, loc) ->
      let spec = Printf.sprintf "%s@%s" kind loc in
      match Faults.of_string spec with
      | Ok _ -> Alcotest.failf "%s parsed" spec
      | Error e ->
        Alcotest.(check string) "names the unknown kind"
          (Printf.sprintf "unknown fault kind %S in %S" kind spec)
          e)
    [ ("raise", "0:1"); ("stall", "0:1*2") ]

(* ---- named seeded families ---- *)

let test_named_deterministic () =
  List.iter
    (fun name ->
      match
        (Faults.named name ~n_procs:4 ~seed:9, Faults.named name ~n_procs:4 ~seed:9)
      with
      | Some a, Some b ->
        Alcotest.(check bool) (name ^ " deterministic") true (a = b);
        Alcotest.(check bool) (name ^ " non-empty") true (a <> []);
        List.iter
          (fun (s : Faults.spec) ->
            Alcotest.(check bool) (name ^ " pids in range") true
              (s.Faults.pid >= 0 && s.Faults.pid < 4))
          a
      | _ -> Alcotest.failf "named family %s missing" name)
    Faults.names

let test_named_benign () =
  (* the named families model crash/restart only: they must never
     drop or corrupt a write — those are value faults, not crash faults *)
  List.iter
    (fun name ->
      match Faults.named name ~n_procs:3 ~seed:2 with
      | None -> Alcotest.failf "named family %s missing" name
      | Some specs ->
        List.iter
          (fun (s : Faults.spec) ->
            match s.Faults.action with
            | Faults.Crash | Faults.Restart _ -> ()
            | Faults.Drop | Faults.Corrupt _ ->
              Alcotest.failf "%s injected a non-benign fault" name)
          specs)
    Faults.names

let test_resolve () =
  (match Faults.resolve ~n_procs:3 ~seed:1 "crashy" with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "crashy resolved to an empty profile"
  | Error e -> Alcotest.failf "crashy did not resolve: %s" e);
  (match Faults.resolve ~n_procs:3 ~seed:1 "crash@1:3" with
  | Ok [ { Faults.pid = 1; at_op = 3; action = Faults.Crash } ] -> ()
  | _ -> Alcotest.fail "literal profile did not resolve");
  (match Faults.resolve ~n_procs:3 ~seed:1 "no-such-family" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown family resolved");
  (* the stall family is gone with the stall kind *)
  match Faults.resolve ~n_procs:2 ~seed:1 "stally" with
  | Ok _ -> Alcotest.fail "stally resolved"
  | Error e ->
    Alcotest.(check string) "lists the remaining names"
      {|bad fault spec "stally" (or use a named profile: crashy, restarting, chaos)|}
      e

(* ---- compilation: fire-once and adapters ---- *)

let test_plan_fires_once () =
  let control =
    Faults.control ~adapter:Faults.null_adapter
      [ { Faults.pid = 1; at_op = 2; action = Faults.Crash } ]
  in
  (* wrong pid, wrong op index: no fire *)
  Alcotest.(check bool) "other pid proceeds" true
    (control ~pid:0 ~nth:2 ~retry:0 () = Rsim_runtime.Prog.Proceed);
  Alcotest.(check bool) "earlier op proceeds" true
    (control ~pid:1 ~nth:1 ~retry:0 () = Rsim_runtime.Prog.Proceed);
  (* the victim op *)
  Alcotest.(check bool) "victim op crashes" true
    (control ~pid:1 ~nth:2 ~retry:0 () = Rsim_runtime.Prog.Crash);
  (* the hook keeps no state: the same offer gets the same answer *)
  Alcotest.(check bool) "the same offer crashes again" true
    (control ~pid:1 ~nth:2 ~retry:0 () = Rsim_runtime.Prog.Crash);
  (* same (pid, nth) on its retry — e.g. after a restart replays op 2 —
     no refire *)
  Alcotest.(check bool) "fires at most once" true
    (control ~pid:1 ~nth:2 ~retry:1 () = Rsim_runtime.Prog.Proceed)

(* Two specs on one operation fire in profile order, one per retry. *)
let test_specs_fire_by_retry () =
  let control =
    Faults.control ~adapter:Faults.null_adapter
      [
        { Faults.pid = 0; at_op = 3; action = Faults.Restart { delay = 2 } };
        { Faults.pid = 1; at_op = 3; action = Faults.Crash };
        { Faults.pid = 0; at_op = 3; action = Faults.Restart { delay = 1 } };
      ]
  in
  Alcotest.(check bool) "retry 0: the first spec" true
    (control ~pid:0 ~nth:3 ~retry:0 ()
    = Rsim_runtime.Prog.Crash_restart { delay = 2 });
  Alcotest.(check bool) "retry 1: the second spec" true
    (control ~pid:0 ~nth:3 ~retry:1 ()
    = Rsim_runtime.Prog.Crash_restart { delay = 1 });
  Alcotest.(check bool) "retry 2 proceeds" true
    (control ~pid:0 ~nth:3 ~retry:2 () = Rsim_runtime.Prog.Proceed)

let test_null_adapter_skips_value_faults () =
  let control =
    Faults.control ~adapter:Faults.null_adapter
      [
        { Faults.pid = 0; at_op = 0; action = Faults.Drop };
        { Faults.pid = 0; at_op = 1; action = Faults.Corrupt { seed = 3 } };
      ]
  in
  Alcotest.(check bool) "drop skipped without an adapter" true
    (control ~pid:0 ~nth:0 ~retry:0 () = Rsim_runtime.Prog.Proceed);
  Alcotest.(check bool) "corrupt skipped without an adapter" true
    (control ~pid:0 ~nth:1 ~retry:0 () = Rsim_runtime.Prog.Proceed)

let test_aug_adapter_drop () =
  let tr =
    { Hrep.comp = 0; value = Rsim_value.Value.Int 5; ts = Vts.of_array [| 0; 0 |] }
  in
  (match Aug.fault_adapter.Faults.drop (Aug.Ops.Happend_triples [ tr ]) with
  | Some (Aug.Ops.Happend_triples []) -> ()
  | _ -> Alcotest.fail "drop of an append must become an empty append");
  match Aug.fault_adapter.Faults.drop Aug.Ops.Hscan with
  | None -> ()
  | Some _ -> Alcotest.fail "a scan is not a write; nothing to drop"

let test_aug_adapter_corrupt () =
  let tr =
    { Hrep.comp = 0; value = Rsim_value.Value.Int 5; ts = Vts.of_array [| 0; 0 |] }
  in
  let g = Rsim_value.Prng.make 11 in
  match Aug.fault_adapter.Faults.corrupt g (Aug.Ops.Happend_triples [ tr ]) with
  | Some (Aug.Ops.Happend_triples [ tr' ]) ->
    Alcotest.(check bool) "component preserved" true (tr'.Hrep.comp = 0);
    Alcotest.(check bool) "timestamp preserved" true
      (Vts.equal tr'.Hrep.ts (Vts.of_array [| 0; 0 |]));
    Alcotest.(check bool) "value garbled" true
      (not (Rsim_value.Value.equal tr'.Hrep.value (Rsim_value.Value.Int 5)))
  | _ -> Alcotest.fail "corrupt must keep the append shape"

let () =
  Alcotest.run "faults"
    [
      ( "grammar",
        [
          Alcotest.test_case "round trip" `Quick test_grammar_roundtrip;
          Alcotest.test_case "empty profiles" `Quick test_grammar_empty;
          Alcotest.test_case "garbage rejected" `Quick test_grammar_rejects_garbage;
          Alcotest.test_case "deleted kinds refused" `Quick
            test_grammar_rejects_deleted_kinds;
        ] );
      ( "named families",
        [
          Alcotest.test_case "deterministic" `Quick test_named_deterministic;
          Alcotest.test_case "benign kinds only" `Quick test_named_benign;
          Alcotest.test_case "resolve" `Quick test_resolve;
        ] );
      ( "plans",
        [
          Alcotest.test_case "fire once" `Quick test_plan_fires_once;
          Alcotest.test_case "one spec per retry" `Quick test_specs_fire_by_retry;
          Alcotest.test_case "null adapter" `Quick
            test_null_adapter_skips_value_faults;
          Alcotest.test_case "aug adapter: drop" `Quick test_aug_adapter_drop;
          Alcotest.test_case "aug adapter: corrupt" `Quick
            test_aug_adapter_corrupt;
        ] );
    ]
