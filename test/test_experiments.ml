(* Integration tests over the experiment harness: every experiment runs,
   produces non-trivial output, and reports no internal check failures.
   These are the same code paths `rsim experiments` prints. *)

open Rsim_experiments

let contains_no sub lines =
  not
    (List.exists
       (fun line ->
         let rec search i =
           i + String.length sub <= String.length line
           && (String.sub line i (String.length sub) = sub || search (i + 1))
         in
         String.length sub <= String.length line && search 0)
       lines)

let run_experiment id () =
  match Experiments.find id with
  | None -> Alcotest.failf "experiment %s not registered" id
  | Some e ->
    let lines = e.Experiments.run () in
    Alcotest.(check bool) "produces output" true (List.length lines >= 3);
    Alcotest.(check bool) "no FAIL marker" true (contains_no "FAIL" lines);
    Alcotest.(check bool) "no EXCEEDED marker" true (contains_no "EXCEEDED" lines)

let test_registry () =
  Alcotest.(check int) "eleven experiments" 11 (List.length Experiments.all);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Experiments.id ^ " has a title")
        true
        (String.length e.Experiments.title > 10))
    Experiments.all;
  Alcotest.(check bool) "find is case-insensitive" true
    (Experiments.find "e5b" <> None)

let test_e2_q0_atomic () =
  match Experiments.find "E2" with
  | None -> Alcotest.fail "E2 missing"
  | Some e ->
    let lines = e.Experiments.run () in
    Alcotest.(check bool) "q0 always atomic" true
      (List.exists
         (fun l ->
           let sub = "q0 always atomic: yes" in
           String.length l >= String.length sub
           && String.sub l 0 (String.length sub) = sub)
         lines)

let test_e5b_finds_witness () =
  match Experiments.find "E5b" with
  | None -> Alcotest.fail "E5b missing"
  | Some e ->
    let lines = e.Experiments.run () in
    Alcotest.(check bool) "some witness found" true
      (List.exists
         (fun l ->
           let rec has i =
             i + 10 <= String.length l
             && (String.sub l i 10 = "first seed" || has (i + 1))
           in
           has 0)
         lines)

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "experiments registered" `Quick test_registry;
        ] );
      ( "runs",
        List.map
          (fun e ->
            Alcotest.test_case
              (e.Experiments.id ^ " clean")
              `Slow
              (run_experiment e.Experiments.id))
          Experiments.all );
      ( "content",
        [
          Alcotest.test_case "E2: q0 atomic" `Slow test_e2_q0_atomic;
          Alcotest.test_case "E5b: witness found" `Slow test_e5b_finds_witness;
        ] );
    ]
