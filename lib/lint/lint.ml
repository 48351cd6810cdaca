(* rsim-lint: the repository's static-analysis plane (DESIGN §10).

   A small rule engine over compiler-libs Parsetrees. It does not type
   the program — typing the whole dune workspace from inside a lint
   binary would drag in build context for dubious benefit — so every
   rule is a syntactic/scope-sensitive approximation chosen to have an
   actionable, low-noise meaning:

   R1  shared-mutability: a [let] whose right-hand side allocates bare
       mutable state (ref / Hashtbl.create / Array.make|init / Bytes,
       Buffer, Queue, Stack) is flagged when Domain-spawned code can
       reach it — i.e. the binding is at structure level in a module
       that calls [Domain.spawn], or its [in]-scope contains a
       [Domain.spawn]. Allocations under a lambda inside the RHS are
       per-call state and skipped. [Atomic.make] / [Mutex.create] /
       [Condition.create] / [Semaphore.*] are the sanctioned escape
       hatches and never flagged; a deliberate share is silenced with
       [[@rsim.shared "why"]] (the rationale string is mandatory).
       Mutable record type declarations in spawning modules are flagged
       the same way.

   R2  no direct printing in library code: lib/ must route diagnostics
       through [Obs.Log] (stderr, leveled, quiet by default) so stdout
       stays machine-readable. Matches the printing entrypoints only —
       [Printf.sprintf] and [Format.pp_*] formatters are pure and fine.

   R3  determinism of the model-checked paths: lib/runtime, lib/augmented
       and lib/explore must not read ambient nondeterminism ([Random.*],
       [Unix.gettimeofday], [Unix.time], [Sys.time]); randomness goes
       through the splittable [Prng] and time through logical clocks,
       or replayed artifacts stop reproducing.

   R4  no partial functions on the hot paths: [List.hd] / [List.tl] /
       [Option.get] / bare [failwith] in lib/runtime, lib/augmented,
       lib/explore turn schedule-dependent states into exceptions the
       explorer reports as fiber failures far from the cause. (Unproven
       [Array.get] bounds are out of scope for a Parsetree checker; the
       dev profile's warning set and the exhaustive engine cover that
       dynamically.)

   R5  every library module has an interface: a lib/**. ml without a
       sibling .mli has its whole namespace public, which is how
       internal mutable state leaks across library boundaries.

   Findings are compared against a committed baseline keyed by
   (rule, file, message) — line numbers shift too easily — so CI fails
   only on regressions. The JSON report is
   {tool; findings: [{rule; file; line; col; message}]; total; fresh}. *)

module J = Rsim_obs.Obs.Json

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type report = { files : int; findings : finding list }

(* ---------------------------------------------------------------- *)
(* Zones                                                             *)
(* ---------------------------------------------------------------- *)

let hot_prefixes = [ "lib/runtime/"; "lib/augmented/"; "lib/explore/" ]

type zone = { lib : bool; hot : bool }

let zone_of path =
  {
    lib = String.starts_with ~prefix:"lib/" path;
    hot = List.exists (fun p -> String.starts_with ~prefix:p path) hot_prefixes;
  }

(* ---------------------------------------------------------------- *)
(* Parsetree helpers                                                 *)
(* ---------------------------------------------------------------- *)

let rec flat = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flat l @ [ s ]
  | Longident.Lapply (l, _) -> flat l

let name_of lid = String.concat "." (flat lid)

let shared_attr_name = "rsim.shared"

let rationale_of (a : Parsetree.attribute) =
  match a.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ]
    when String.trim s <> "" ->
    Some s
  | _ -> None

let shared_of attrs =
  List.find_opt
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = shared_attr_name)
    attrs

(* The annotation may sit on the value binding ([@@rsim.shared "..."])
   or on any expression node inside the RHS ([@rsim.shared "..."]) —
   attribute attachment inside applications is fiddly enough that we
   accept it anywhere in the bound expression. *)
let binding_shared (vb : Parsetree.value_binding) =
  let found = ref (shared_of vb.pvb_attributes) in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match (!found, shared_of e.pexp_attributes) with
          | None, (Some _ as a) -> found := a
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it vb.pvb_expr;
  !found

let contains_spawn_expr e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } when name_of txt = "Domain.spawn" ->
            found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let contains_spawn_structure str =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } when name_of txt = "Domain.spawn" ->
            found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.structure it str;
  !found

let creators =
  [
    "ref";
    "Hashtbl.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
  ]

(* The first mutable-state allocation evaluated when the RHS is —
   allocations under a lambda are per-call state, not a share. *)
let rhs_creator e =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          match ex.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
            let n = name_of txt in
            if !found = None && List.mem n creators then
              found := Some (n, ex.pexp_loc);
            Ast_iterator.default_iterator.expr self ex
          | _ -> Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* ---------------------------------------------------------------- *)
(* Rules R1-R4 over one implementation                               *)
(* ---------------------------------------------------------------- *)

let printing_idents =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_string";
    "print_bytes";
    "print_char";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
    "prerr_string";
    "prerr_bytes";
    "prerr_char";
    "prerr_int";
    "prerr_float";
    "prerr_endline";
    "prerr_newline";
  ]

let nondet_ident n =
  String.starts_with ~prefix:"Random." n
  || n = "Unix.gettimeofday" || n = "Unix.time" || n = "Sys.time"

let partial_idents = [ "List.hd"; "List.tl"; "Option.get"; "failwith" ]

let lint_structure ~file ~zone str =
  let findings = ref [] in
  let add ~rule ~(loc : Location.t) message =
    let p = loc.loc_start in
    findings :=
      {
        rule;
        file;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        message;
      }
      :: !findings
  in
  let module_spawns = contains_spawn_structure str in
  let check_binding ~reachable (vb : Parsetree.value_binding) =
    if reachable then
      match rhs_creator vb.pvb_expr with
      | None -> ()
      | Some (creator, loc) -> (
        match binding_shared vb with
        | Some a when rationale_of a <> None -> ()
        | Some _ ->
          add ~rule:"R1" ~loc
            (Printf.sprintf
               "[@rsim.shared] on this %s needs a rationale string" creator)
        | None ->
          add ~rule:"R1" ~loc
            (Printf.sprintf
               "bare mutable state (%s) reachable from Domain-spawned code; \
                use Atomic/Mutex or annotate [@rsim.shared \"why\"]"
               creator))
  in
  let check_type (td : Parsetree.type_declaration) =
    if module_spawns then
      match td.ptype_kind with
      | Ptype_record labels ->
        let mut =
          List.find_opt
            (fun (l : Parsetree.label_declaration) ->
              l.pld_mutable = Asttypes.Mutable
              && shared_of (l.pld_attributes @ td.ptype_attributes) = None)
            labels
        in
        Option.iter
          (fun (l : Parsetree.label_declaration) ->
            add ~rule:"R1" ~loc:l.pld_loc
              (Printf.sprintf
                 "mutable field %s.%s in a Domain-spawning module; use \
                  Atomic/Mutex or annotate [@rsim.shared \"why\"]"
                 td.ptype_name.txt l.pld_name.txt))
          mut
      | _ -> ()
  in
  let check_ident ~loc n =
    if zone.lib && List.mem n printing_idents then
      add ~rule:"R2" ~loc
        (Printf.sprintf "%s in library code; route through Obs.Log" n);
    if zone.hot && nondet_ident n then
      add ~rule:"R3" ~loc
        (Printf.sprintf
           "%s in a deterministic path; use Prng / logical clocks" n);
    if zone.hot && List.mem n partial_idents then
      add ~rule:"R4" ~loc
        (Printf.sprintf "partial function %s on a hot path" n)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident ~loc (name_of txt)
          | Pexp_let (_, vbs, body) ->
            let reachable = contains_spawn_expr body in
            List.iter (check_binding ~reachable) vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter (check_binding ~reachable:module_spawns) vbs
          | Pstr_type (_, tds) -> List.iter check_type tds
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si);
    }
  in
  it.structure it str;
  List.rev !findings

(* ---------------------------------------------------------------- *)
(* Per-file driver                                                   *)
(* ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_source ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | str -> lint_structure ~file ~zone:(zone_of file) str
  | exception exn ->
    let loc, msg =
      match Location.error_of_exn exn with
      | Some (`Ok (e : Location.error)) ->
        ( e.main.loc,
          Format.asprintf "%t" (fun ppf -> e.main.txt ppf) )
      | _ -> (Location.none, Printexc.to_string exn)
    in
    let p = loc.Location.loc_start in
    [
      {
        rule = "parse";
        file;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        message = "does not parse: " ^ msg;
      };
    ]

let lint_file ~root ~file =
  let src = read_file (Filename.concat root file) in
  lint_source ~file src

(* ---------------------------------------------------------------- *)
(* Workspace walking + R5                                            *)
(* ---------------------------------------------------------------- *)

let default_dirs = [ "lib"; "bin"; "bench"; "dev" ]

let rec walk root rel acc =
  let abs = if rel = "" then root else Filename.concat root rel in
  if not (Sys.file_exists abs) then acc
  else if Sys.is_directory abs then
    let base = Filename.basename abs in
    if String.length base > 0 && (base.[0] = '_' || base.[0] = '.') then acc
    else
      Array.fold_left
        (fun acc entry ->
          walk root
            (if rel = "" then entry else Filename.concat rel entry)
            acc)
        acc (Sys.readdir abs)
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

let files ?(dirs = default_dirs) ~root () =
  List.sort compare
    (List.concat_map (fun d -> walk root d []) dirs)

let compare_finding a b =
  match compare a.file b.file with
  | 0 -> (
    match compare a.line b.line with
    | 0 -> compare (a.rule, a.message) (b.rule, b.message)
    | c -> c)
  | c -> c

let scan ?dirs ~root () =
  let fs = files ?dirs ~root () in
  let findings =
    List.concat_map
      (fun file ->
        let fs = lint_file ~root ~file in
        (* R5: library modules must publish an interface. *)
        if
          (zone_of file).lib
          && not (Sys.file_exists (Filename.concat root (file ^ "i")))
        then
          {
            rule = "R5";
            file;
            line = 1;
            col = 0;
            message = "library module has no .mli interface";
          }
          :: fs
        else fs)
      fs
  in
  { files = List.length fs; findings = List.sort compare_finding findings }

(* ---------------------------------------------------------------- *)
(* JSON report + baseline                                            *)
(* ---------------------------------------------------------------- *)

let finding_to_json f =
  J.Obj
    [
      ("rule", J.Str f.rule);
      ("file", J.Str f.file);
      ("line", J.Int f.line);
      ("col", J.Int f.col);
      ("message", J.Str f.message);
    ]

let report_to_json ~tool ~fresh r =
  J.Obj
    [
      ("tool", J.Str tool);
      ("files", J.Int r.files);
      ("total", J.Int (List.length r.findings));
      ("fresh", J.Int (List.length fresh));
      ("findings", J.Arr (List.map finding_to_json r.findings));
      ("fresh_findings", J.Arr (List.map finding_to_json fresh));
    ]

let key f = (f.rule, f.file, f.message)

let baseline_to_string findings =
  J.to_string_pretty
    (J.Obj
       [
         ( "findings",
           J.Arr
             (List.map
                (fun f ->
                  J.Obj
                    [
                      ("rule", J.Str f.rule);
                      ("file", J.Str f.file);
                      ("message", J.Str f.message);
                    ])
                findings) );
       ])
  ^ "\n"

let baseline_of_string s =
  match J.parse s with
  | Error e -> Error ("baseline: " ^ e)
  | Ok j -> (
    match J.member "findings" j with
    | Some (J.Arr items) ->
      let keys =
        List.filter_map
          (fun item ->
            match
              ( J.member "rule" item,
                J.member "file" item,
                J.member "message" item )
            with
            | Some (J.Str r), Some (J.Str f), Some (J.Str m) -> Some (r, f, m)
            | _ -> None)
          items
      in
      if List.length keys = List.length items then Ok keys
      else Error "baseline: malformed finding entry"
    | _ -> Error "baseline: missing findings array")

let load_baseline ~path =
  if not (Sys.file_exists path) then Ok []
  else baseline_of_string (read_file path)

let fresh_against ~baseline findings =
  List.filter (fun f -> not (List.mem (key f) baseline)) findings

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message
