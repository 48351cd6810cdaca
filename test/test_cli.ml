(* The rsim command line renders its help. cmdliner checks a doc
   string's markup only when it renders it, so a bad escape in one
   option's doc passes the build and is reported on stderr by [--help]
   alone; this renders the top-level help and every subcommand's. *)

let exe =
  Filename.concat (Filename.concat Filename.parent_dir_name "bin") "main.exe"

(* Run [exe args]; return its exit code, stdout and stderr. *)
let run args =
  let out = Filename.temp_file "rsim_cli" ".out" in
  let err = Filename.temp_file "rsim_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* The subcommands listed in the COMMANDS section of the top-level help:
   each entry's first line is indented by seven spaces, its description
   by more. *)
let subcommands () =
  let _, out, _ = run "--help=plain" in
  let rec section in_commands acc = function
    | [] -> List.rev acc
    | line :: rest ->
      if line = "COMMANDS" then section true acc rest
      else if line <> "" && line.[0] <> ' ' then section false acc rest
      else if
        in_commands
        && String.length line > 7
        && String.sub line 0 7 = "       "
        && line.[7] <> ' '
      then
        let entry = String.sub line 7 (String.length line - 7) in
        let name = List.hd (String.split_on_char ' ' entry) in
        section in_commands (name :: acc) rest
      else section in_commands acc rest
  in
  section false [] (String.split_on_char '\n' out)

let check_help args =
  let code, out, err = run (args ^ " --help=plain") in
  Alcotest.(check int) (args ^ ": exit code") 0 code;
  Alcotest.(check string) (args ^ ": stderr") "" err;
  Alcotest.(check bool) (args ^ ": help printed") true (String.length out > 0)

let test_top_level_help () = check_help ""

let test_subcommand_help () =
  let subs = subcommands () in
  Alcotest.(check bool)
    ("subcommands found: " ^ String.concat " " subs)
    true
    (List.mem "explore" subs && List.mem "simulate" subs);
  List.iter check_help subs

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A racing shape needs (f-d)*m + d <= n simulated processes; one that
   does not fit is a usage error (exit 2) naming the constraint, not an
   uncaught exception. *)
let check_bad_shape args =
  let code, _, err = run args in
  Alcotest.(check int) (args ^ ": exit code") 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr names the constraint: %S" args err)
    true
    (contains ~sub:"(f-d)*m + d = 4 exceeds n = 3" err)

let test_explore_bad_shape () =
  check_bad_shape "explore --workload racing -n 3 -m 2 -f 2"

let test_simulate_bad_shape () = check_bad_shape "simulate -n 3 -m 2 -f 2 -d 0"

(* A workload the decoder refuses, from the command line or from an
   artifact, exits 2 with the reason on stderr, not 125 with an
   uncaught exception. *)
let check_refused args ~reason =
  let code, _, err = run args in
  Alcotest.(check int) (args ^ ": exit code") 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr gives the reason: %S" args err)
    true
    (contains ~sub:reason err && not (contains ~sub:"uncaught" err))

(* [witness] runs the same simulations as [simulate], so it refuses the
   same shapes. *)
let test_witness_bad_shape () =
  check_bad_shape "witness -n 3 -m 2 -f 2 -d 0";
  check_refused "witness -n 2 -m 2 -f 3"
    ~reason:"(f-d)*m + d = 6 exceeds n = 2";
  check_refused "witness -m 0" ~reason:"m must be >= 1"

let test_explore_empty_shape () =
  check_refused "explore --workload mixed -f 0 -m 2" ~reason:"f must be >= 1";
  check_refused "explore --workload mixed -f 2 -m 0" ~reason:"m must be >= 1"

(* Write an artifact that records [workload] with [params] and [inject],
   [max_steps] (default 12) and [script] (default a two-step one);
   return its path. *)
let artifact ?faults ?(max_steps = 12) ?(script = [ 0; 1 ]) ~workload ~params
    ~inject () =
  let path = Filename.temp_file "rsim_cli" ".json" in
  let opt = function None -> "null" | Some s -> Printf.sprintf "%S" s in
  let ints l = String.concat ", " (List.map string_of_int l) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        {|{"version": 2, "workload": %S, "params": {%s}, "inject": %s,
"faults": %s, "max_steps": %d, "errors": [], "original": [%s],
"script": [%s]}|}
        workload
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) params))
        (opt inject) (opt faults) max_steps (ints script) (ints script));
  path

let test_artifact_bad_shape () =
  List.iter
    (fun (workload, params, reason) ->
      let path = artifact ~workload ~params ~inject:None () in
      List.iter
        (fun cmd -> check_refused (cmd ^ " " ^ path) ~reason)
        [ "replay"; "stats" ];
      Sys.remove path)
    [
      ( "racing",
        [ ("n", 3); ("m", 2); ("f", 2); ("d", 0) ],
        "(f-d)*m + d = 4 exceeds n = 3" );
      ("mixed", [ ("f", 0); ("m", 2) ], "f must be >= 1");
    ];
  (* A script the replay cannot run as written is refused too, instead
     of reading as "NOT reproduced". Each case edits one field of an
     artifact that reproduces the seeded yield-on-higher bug. *)
  let caught = [ 1; 0; 0; 1; 1; 1; 1; 1 ] in
  let seeded ?(max_steps = 12) ?(script = caught) () =
    artifact ~max_steps ~script ~workload:"bu-conflict"
      ~params:[ ("f", 2); ("m", 2) ]
      ~inject:(Some "yield-on-higher") ()
  in
  let path = seeded () in
  let code, out, _ = run ("replay " ^ path) in
  Alcotest.(check int) ("the unedited artifact reproduces: " ^ out) 0 code;
  Sys.remove path;
  List.iter
    (fun (path, reason) ->
      List.iter
        (fun cmd -> check_refused (cmd ^ " " ^ path) ~reason)
        [ "replay"; "stats" ];
      Sys.remove path)
    [
      ( seeded ~script:[ 1; 0; 0; 7; 1; 1; 1; 1 ] (),
        "script pid 7 is not one of the 2 processes" );
      (seeded ~max_steps:(-5) (), "max_steps must be >= 1 (got -5)");
      ( seeded ~max_steps:3 (),
        "the 8-step script exceeds max_steps = 3" );
    ]

(* A seeded bug on racing gets the same message from the command line
   and from an artifact. *)
let test_racing_seeded_bug () =
  let reason = "seeded bugs apply to augmented-snapshot workloads only" in
  check_refused
    "explore --workload racing -n 4 -m 2 -f 2 --inject yield-on-higher" ~reason;
  let path =
    artifact ~workload:"racing"
      ~params:[ ("n", 4); ("m", 2); ("f", 2); ("d", 0) ]
      ~inject:(Some "yield-on-higher") ()
  in
  check_refused ("replay " ^ path) ~reason;
  check_refused ("stats " ^ path) ~reason;
  Sys.remove path

(* A fault aimed at a pid the workload does not have would never fire:
   the profile is refused, from the command line and from an artifact,
   instead of reporting an unfaulted run as a faulted pass. *)
let test_fault_pid_out_of_range () =
  let reason = "pid 5 is not one of the 2 processes" in
  check_refused
    "explore --workload bu-conflict -f 2 -m 2 --faults crash@5:3 --max-steps 8"
    ~reason;
  check_refused
    "explore --workload racing -n 4 -m 2 -f 2 --faults restart@5:0+2 \
     --max-steps 8"
    ~reason;
  check_refused
    "explore --workload bu-conflict -f 2 -m 2 --faults crash@-1:3 --max-steps 8"
    ~reason:"expected a non-negative integer";
  let path =
    artifact ~faults:"crash@1:2,crash@5:3" ~workload:"bu-conflict"
      ~params:[ ("f", 2); ("m", 2) ]
      ~inject:None ()
  in
  check_refused ("replay " ^ path) ~reason;
  check_refused ("stats " ^ path) ~reason;
  Sys.remove path

(* A process fault is a crash: there is no injected-exception kind, so a
   [raise@] spec is refused like any unknown kind, from the command line
   and from an artifact. *)
let test_raise_fault_refused () =
  let reason = {|unknown fault kind "raise"|} in
  check_refused "explore --workload bu-conflict -f 2 -m 2 --faults raise@0:1"
    ~reason;
  let path =
    artifact ~faults:"raise@0:1" ~workload:"bu-conflict"
      ~params:[ ("f", 2); ("m", 2) ]
      ~inject:None ()
  in
  check_refused ("replay " ^ path) ~reason;
  Sys.remove path

(* Hiding a process is a schedule: there is no stall kind, so an
   artifact saved with a stall spec is refused on replay. *)
let test_stall_fault_refused () =
  let path =
    artifact ~faults:"stall@0:2*4" ~workload:"bu-conflict"
      ~params:[ ("f", 2); ("m", 2) ]
      ~inject:None ()
  in
  check_refused ("replay " ^ path) ~reason:{|unknown fault kind "stall"|};
  Sys.remove path

(* An engine bound out of range would read as a pass on a seeded bug
   the default bounds catch: a negative step or preemption bound and an
   empty sweep explore nothing, and an engine that may keep no violation
   stops at the first one and drops it. Each is refused. *)
let test_bounds_out_of_range () =
  let caught =
    "explore --workload bu-conflict -f 2 -m 2 --inject yield-on-higher"
  in
  List.iter
    (fun (flags, reason) -> check_refused (caught ^ " " ^ flags) ~reason)
    [
      ( "--max-steps 12 --max-violations 0",
        "--max-violations must be >= 1 (got 0)" );
      ( "--max-steps 12 --max-violations=-1",
        "--max-violations must be >= 1 (got -1)" );
      ("--max-steps=-5", "--max-steps must be >= 0 (got -5)");
      ("--preemption-bound=-1", "--preemption-bound must be >= 0 (got -1)");
      ("--mode sweep --budget 0", "--budget must be >= 1 (got 0)");
      ("--mode sweep --budget=-3", "--budget must be >= 1 (got -3)");
    ];
  (* --max-steps 0 still means the engine's default, and catches the bug *)
  let code, _, _ = run (caught ^ " --max-steps 0") in
  Alcotest.(check int) "--max-steps 0: the bug is caught" 1 code

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "top level" `Quick test_top_level_help;
          Alcotest.test_case "every subcommand" `Quick test_subcommand_help;
        ] );
      ( "usage errors",
        [
          Alcotest.test_case "explore: racing shape exceeds n" `Quick
            test_explore_bad_shape;
          Alcotest.test_case "simulate: shape exceeds n" `Quick
            test_simulate_bad_shape;
          Alcotest.test_case "witness: shape exceeds n" `Quick
            test_witness_bad_shape;
          Alcotest.test_case "explore: f or m below 1" `Quick
            test_explore_empty_shape;
          Alcotest.test_case "replay and stats: invalid artifact shape" `Quick
            test_artifact_bad_shape;
          Alcotest.test_case "seeded bug on racing" `Quick
            test_racing_seeded_bug;
          Alcotest.test_case "raise fault refused" `Quick
            test_raise_fault_refused;
          Alcotest.test_case "stall fault refused" `Quick
            test_stall_fault_refused;
          Alcotest.test_case "fault pid outside the workload" `Quick
            test_fault_pid_out_of_range;
          Alcotest.test_case "explore: engine bounds out of range" `Quick
            test_bounds_out_of_range;
        ] );
    ]
