(* Schema history:
   v1 — workload/params/inject/max_steps/errors/original/script;
   v2 — adds "faults" (a fault-plane profile in the
        {!Rsim_faults.Faults.of_string} grammar, or null).
   Readers accept any version up to [current_version]; a missing
   "version" means v1 (the first writer already stamped one, but the
   first reader ignored it). *)
let current_version = 2

type t = {
  version : int;
  workload : string;
  params : (string * int) list;
  inject : string option;
  faults : string option;
  max_steps : int;
  errors : string list;
  original : int list;
  script : int list;
}

let of_violation ~(workload : Explore.workload) ~max_steps
    (v : Explore.violation) =
  {
    version = current_version;
    workload = workload.Explore.name;
    params = workload.Explore.params;
    inject = workload.Explore.inject;
    faults = workload.Explore.faults;
    max_steps;
    errors = v.Explore.errors;
    original = v.Explore.original;
    script = v.Explore.script;
  }

(* A script the replay cannot run as written would read as "not
   reproduced": a step cap below 1 or below the script's length cuts it
   short, and a pid the workload does not have is skipped. *)
let check_script t (w : Explore.workload) =
  let n = w.Explore.n_procs and len = List.length t.script in
  if t.max_steps < 1 then
    Error (Printf.sprintf "artifact: max_steps must be >= 1 (got %d)" t.max_steps)
  else if len > t.max_steps then
    Error
      (Printf.sprintf "artifact: the %d-step script exceeds max_steps = %d" len
         t.max_steps)
  else
    match List.find_opt (fun pid -> pid < 0 || pid >= n) t.script with
    | Some pid ->
      Error
        (Printf.sprintf
           "artifact: script pid %d is not one of the %d processes (0 to %d)"
           pid n (n - 1))
    | None -> Ok w

let to_workload t =
  match Option.fold ~none:(Ok []) ~some:Rsim_faults.Faults.of_string t.faults with
  | Error e -> Error ("artifact: bad fault profile: " ^ e)
  | Ok faults ->
    Result.bind
      (Explore.build_workload ~name:t.workload ~params:t.params
         ?inject:t.inject ~faults ())
      (check_script t)

(* ---------------------------------------------------------------- *)
(* Serialization (via the observability plane's JSON)                *)
(* ---------------------------------------------------------------- *)

module J = Rsim_obs.Obs.Json

let opt_str = function None -> J.Null | Some s -> J.Str s

let to_json t =
  J.to_string_pretty
    (J.Obj
       [
         ("version", J.Int t.version);
         ("workload", J.Str t.workload);
         ("params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) t.params));
         ("inject", opt_str t.inject);
         ("faults", opt_str t.faults);
         ("max_steps", J.Int t.max_steps);
         ("errors", J.Arr (List.map (fun e -> J.Str e) t.errors));
         ("original", J.Arr (List.map (fun i -> J.Int i) t.original));
         ("script", J.Arr (List.map (fun i -> J.Int i) t.script));
       ])
  ^ "\n"

let ( let* ) = Result.bind

let of_json str =
  match J.parse str with
  | Error msg -> Error ("invalid artifact: " ^ msg)
  | Ok (J.Obj fields) ->
    let find k = List.assoc_opt k fields in
    let str_field k =
      match find k with
      | Some (J.Str s) -> Ok s
      | _ -> Error ("artifact: missing string field " ^ k)
    in
    let int_field k =
      match find k with
      | Some (J.Int i) -> Ok i
      | _ -> Error ("artifact: missing integer field " ^ k)
    in
    let int_list k =
      match find k with
      | Some (J.Arr xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match x with
            | J.Int i -> Ok (i :: acc)
            | _ -> Error ("artifact: non-integer in " ^ k))
          (Ok []) xs
        |> Result.map List.rev
      | _ -> Error ("artifact: missing integer list " ^ k)
    in
    let str_list k =
      match find k with
      | Some (J.Arr xs) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match x with
            | J.Str s -> Ok (s :: acc)
            | _ -> Error ("artifact: non-string in " ^ k))
          (Ok []) xs
        |> Result.map List.rev
      | _ -> Error ("artifact: missing string list " ^ k)
    in
    let* version =
      match find "version" with
      | None -> Ok 1 (* pre-versioned artifacts *)
      | Some (J.Int v) when v >= 1 && v <= current_version -> Ok v
      | Some (J.Int v) ->
        Error
          (Printf.sprintf
             "artifact: unsupported artifact version %d (this build reads up \
              to %d)"
             v current_version)
      | Some _ -> Error "artifact: version must be an integer"
    in
    let* workload = str_field "workload" in
    let* params =
      match find "params" with
      | Some (J.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | J.Int i -> Ok ((k, i) :: acc)
            | _ -> Error "artifact: non-integer parameter")
          (Ok []) kvs
        |> Result.map List.rev
      | _ -> Error "artifact: missing params object"
    in
    let opt_str_field k =
      match find k with
      | Some J.Null | None -> Ok None
      | Some (J.Str s) -> Ok (Some s)
      | Some _ -> Error ("artifact: " ^ k ^ " must be a string or null")
    in
    let* inject = opt_str_field "inject" in
    let* faults = opt_str_field "faults" in
    let* max_steps = int_field "max_steps" in
    let* errors = str_list "errors" in
    let* original = int_list "original" in
    let* script = int_list "script" in
    Ok
      {
        version;
        workload;
        params;
        inject;
        faults;
        max_steps;
        errors;
        original;
        script;
      }
  | Ok _ -> Error "invalid artifact: expected a JSON object"

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))

(* Robust against every filesystem-shaped failure — [rsim replay] and
   [rsim stats] turn any [Error] into exit code 2, so a directory, a
   permission-denied file, or a file truncated mid-read must all land
   here rather than escape as an exception. *)
let load ~path =
  match
    if Sys.is_directory path then Error (path ^ ": is a directory")
    else begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    end
  with
  | Ok contents -> of_json contents
  | Error e -> Error e
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": truncated read")
