(* rsim-lint engine tests (DESIGN §10): each fixture under
   lint_fixtures/ trips exactly its own rule (R6 twice), the [@rsim.shared]
   annotation and the zone gates silence correctly, and the baseline
   machinery diffs by (rule, file, message). *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs us in test/; dune exec from the workspace root. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

(* Fixtures are plain source text; the synthetic [as_] path picks the
   zone the rules key on. *)
let lint_fixture ~as_ name =
  Lint.lint_source ~file:as_ (read (Filename.concat fixture_dir name))

let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs

let test_r1 () =
  let fs = lint_fixture ~as_:"lib/explore/fix.ml" "r1_bare_ref.ml" in
  Alcotest.(check (list string)) "exactly one R1" [ "R1" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check bool)
    "names the creator" true
    (String.length f.Lint.message > 0
    && String.sub f.Lint.message 0 4 = "bare")

let test_r1_annotated () =
  let fs = lint_fixture ~as_:"lib/explore/fix.ml" "r1_annotated.ml" in
  Alcotest.(check (list string))
    "Atomic + rationale silence R1" [] (rules fs)

let test_r2 () =
  let fs = lint_fixture ~as_:"lib/protocols/fix.ml" "r2_print.ml" in
  Alcotest.(check (list string))
    "print_endline flagged, sprintf not" [ "R2" ] (rules fs)

let test_r2_zone () =
  let fs = lint_fixture ~as_:"bin/fix.ml" "r2_print.ml" in
  Alcotest.(check (list string)) "printing is fine outside lib/" [] (rules fs)

let test_r3 () =
  let fs = lint_fixture ~as_:"lib/runtime/fix.ml" "r3_nondet.ml" in
  Alcotest.(check (list string)) "gettimeofday flagged" [ "R3" ] (rules fs);
  let fs' = lint_fixture ~as_:"lib/bounds/fix.ml" "r3_nondet.ml" in
  Alcotest.(check (list string))
    "determinism only enforced on hot paths" [] (rules fs')

let test_r4 () =
  let fs = lint_fixture ~as_:"lib/augmented/fix.ml" "r4_partial.ml" in
  Alcotest.(check (list string))
    "List.hd flagged, total match not" [ "R4" ] (rules fs)

let test_r5 () =
  let report = Lint.scan ~root:(Filename.concat fixture_dir "r5_root") () in
  Alcotest.(check int) "one file scanned" 1 report.Lint.files;
  Alcotest.(check (list string))
    "missing .mli flagged" [ "R5" ] (rules report.Lint.findings);
  Alcotest.(check string)
    "path is workspace-relative" "lib/nomli/nomli.ml"
    (List.hd report.Lint.findings).Lint.file

let test_r6 () =
  let report = Lint.scan ~root:(Filename.concat fixture_dir "r6_root") () in
  Alcotest.(check (list (pair string string)))
    "values no other library refers to, through an alias or an open, at \
     top level or in a submodule"
    [
      ("R6", "val Used.sibling_only is used by no module outside its library");
      ("R6", "val Used.unused is used by no module outside its library");
      ( "R6",
        "val Used.Nested.unused_nested is used by no module outside its \
         library" );
    ]
    (List.map
       (fun (f : Lint.finding) -> (f.Lint.rule, f.Lint.message))
       report.Lint.findings)

let test_parse_error () =
  let fs = Lint.lint_source ~file:"lib/x/broken.ml" "let let let" in
  Alcotest.(check (list string)) "unparseable -> parse finding" [ "parse" ]
    (rules fs)

let test_baseline () =
  let fs = lint_fixture ~as_:"lib/protocols/fix.ml" "r2_print.ml" in
  let s = Lint.baseline_to_string ~previous:[] fs in
  (match Lint.baseline_of_string s with
  | Error e -> Alcotest.fail e
  | Ok keys ->
    Alcotest.(check int) "round trip" (List.length fs) (List.length keys);
    Alcotest.(check int)
      "baselined findings are not fresh" 0
      (List.length (Lint.fresh_against ~baseline:keys fs)));
  Alcotest.(check int)
    "empty baseline leaves findings fresh" (List.length fs)
    (List.length (Lint.fresh_against ~baseline:[] fs))

(* Rewriting the baseline file keeps the reason of every entry whose key
   is still found, gives a new finding no reason, and drops the entries
   that excuse nothing any more. *)
let test_baseline_reasons () =
  let module J = Rsim_obs.Obs.Json in
  let f = List.hd (lint_fixture ~as_:"lib/protocols/fix.ml" "r2_print.ml") in
  let fresh = { f with Lint.message = "a finding the baseline lacks" } in
  let entry rule file message reason =
    J.Obj
      [
        ("rule", J.Str rule);
        ("file", J.Str file);
        ("message", J.Str message);
        ("reason", J.Str reason);
      ]
  in
  let path = Filename.temp_file "rsim_lint" ".json" in
  let write text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  let load () =
    match Lint.load_baseline ~path with
    | Ok entries -> entries
    | Error e -> Alcotest.fail e
  in
  write
    (J.to_string_pretty
       (J.Obj
          [
            ( "findings",
              J.Arr
                [
                  entry f.Lint.rule f.Lint.file f.Lint.message "why it stays";
                  entry "R1" "lib/gone.ml" "fixed since" "stale";
                ] );
          ]));
  write (Lint.baseline_to_string ~previous:(load ()) [ f; fresh ]);
  let back = load () in
  Sys.remove path;
  Alcotest.(check (list (pair (triple string string string) (option string))))
    "reasons after the update"
    [
      ((f.Lint.rule, f.Lint.file, f.Lint.message), Some "why it stays");
      ((fresh.Lint.rule, fresh.Lint.file, fresh.Lint.message), None);
    ]
    (List.map (fun (e : Lint.entry) -> (e.key, e.reason)) back)

let test_report_json () =
  let fs = lint_fixture ~as_:"lib/protocols/fix.ml" "r2_print.ml" in
  let j =
    Lint.report_to_json ~tool:"rsim-lint" ~fresh:fs
      { Lint.files = 1; findings = fs }
  in
  let module J = Rsim_obs.Obs.Json in
  Alcotest.(check bool)
    "tool field" true
    (J.member "tool" j = Some (J.Str "rsim-lint"));
  Alcotest.(check bool)
    "total/fresh counted" true
    (J.member "total" j = Some (J.Int 1) && J.member "fresh" j = Some (J.Int 1));
  match J.member "findings" j with
  | Some (J.Arr [ f ]) ->
    Alcotest.(check bool)
      "finding schema" true
      (J.member "rule" f = Some (J.Str "R2")
      && J.member "file" f = Some (J.Str "lib/protocols/fix.ml")
      && J.member "line" f <> None
      && J.member "message" f <> None)
  | _ -> Alcotest.fail "findings array missing"

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 bare mutable state" `Quick test_r1;
          Alcotest.test_case "R1 silenced by Atomic + rationale" `Quick
            test_r1_annotated;
          Alcotest.test_case "R2 direct printing" `Quick test_r2;
          Alcotest.test_case "R2 zone gate" `Quick test_r2_zone;
          Alcotest.test_case "R3 nondeterminism" `Quick test_r3;
          Alcotest.test_case "R4 partial functions" `Quick test_r4;
          Alcotest.test_case "R5 missing interface" `Quick test_r5;
          Alcotest.test_case "R6 unused interface values" `Quick test_r6;
          Alcotest.test_case "parse errors are findings" `Quick
            test_parse_error;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip + diff" `Quick test_baseline;
          Alcotest.test_case "update keeps reasons" `Quick
            test_baseline_reasons;
          Alcotest.test_case "report JSON schema" `Quick test_report_json;
        ] );
    ]
