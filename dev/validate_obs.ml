(* CI schema check for the observability outputs.

   Usage:  validate_obs metrics FILE   — a `rsim ... --metrics json` dump
           validate_obs trace FILE     — a `--trace-out` Chrome trace

   For [metrics], FILE may be a whole captured stdout: the dump is the
   last line starting with '{'. Exits 0 if the file matches the schema,
   1 with a diagnostic on stderr otherwise. *)

module J = Rsim_obs.Obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("validate_obs: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse what s =
  match J.parse s with Ok j -> j | Error e -> fail "%s: bad JSON: %s" what e

let obj_field what j name =
  match J.member name j with
  | Some v -> v
  | None -> fail "%s: missing field %S" what name

let check_metrics path =
  let last_json_line =
    List.fold_left
      (fun acc line ->
        if String.length line > 0 && line.[0] = '{' then Some line else acc)
      None
      (String.split_on_char '\n' (read_file path))
  in
  let line =
    match last_json_line with
    | Some l -> l
    | None -> fail "metrics: no line starting with '{' in %s" path
  in
  let j = parse "metrics" line in
  let counters = obj_field "metrics" j "counters" in
  ignore (obj_field "metrics" j "gauges");
  let histograms = obj_field "metrics" j "histograms" in
  (* the instrumented hot paths must actually have reported *)
  List.iter
    (fun name ->
      match J.member name counters with
      | Some (J.Int n) when n >= 0 -> ()
      | Some _ -> fail "metrics: counter %S is not a non-negative int" name
      | None -> fail "metrics: counter %S missing" name)
    [ "explore.executions"; "fiber.ops"; "aug.bu.total" ];
  (match J.member "explore.preemptions" histograms with
  | Some h ->
    (match (J.member "count" h, J.member "sum" h, J.member "buckets" h) with
    | Some (J.Int _), Some (J.Int _), Some (J.Arr _) -> ()
    | _ -> fail "metrics: explore.preemptions histogram malformed")
  | None -> fail "metrics: histogram explore.preemptions missing");
  print_endline "metrics dump ok"

let check_trace path =
  let j = parse "trace" (read_file path) in
  let evs =
    match J.member "traceEvents" j with
    | Some (J.Arr evs) -> evs
    | Some _ -> fail "trace: traceEvents is not an array"
    | None -> fail "trace: missing traceEvents"
  in
  if evs = [] then fail "trace: no events recorded";
  List.iteri
    (fun i ev ->
      List.iter
        (fun f ->
          match J.member f ev with
          | Some (J.Str _) when f = "name" || f = "ph" -> ()
          | Some (J.Int _) when f <> "name" && f <> "ph" -> ()
          | Some _ -> fail "trace: event %d: field %S has the wrong type" i f
          | None -> fail "trace: event %d: missing field %S" i f)
        [ "name"; "ph"; "pid"; "tid"; "ts" ];
      match J.member "ph" ev with
      | Some (J.Str ("i" | "X")) -> ()
      | _ -> fail "trace: event %d: unknown phase" i)
    evs;
  Printf.printf "trace ok: %d events\n" (List.length evs)

let () =
  match Sys.argv with
  | [| _; "metrics"; path |] -> check_metrics path
  | [| _; "trace"; path |] -> check_trace path
  | _ ->
    prerr_endline "usage: validate_obs (metrics|trace) FILE";
    exit 2
