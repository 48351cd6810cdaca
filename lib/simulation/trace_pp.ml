open Rsim_value
open Rsim_augmented

let pp_updates fmt updates =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (List.map
          (fun (j, v) -> Printf.sprintf "%d:=%s" j (Value.show v))
          updates))

let pp_view fmt view =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (List.map Value.show (Array.to_list view)))

let pp_htrace fmt trace =
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      match e.op with
      | Aug.Ops.Hscan -> Format.fprintf fmt "%4d q%d H.scan@." e.idx e.pid
      | Aug.Ops.Happend_triples triples ->
        Format.fprintf fmt "%4d q%d H.append-triples %s@." e.idx e.pid
          (String.concat ", "
             (List.map
                (fun (t : Hrep.triple) ->
                  Printf.sprintf "(%d, %s, %s)" t.comp (Value.show t.value)
                    (Vts.show t.ts))
                triples))
      | Aug.Ops.Happend_lrecords recs ->
        Format.fprintf fmt "%4d q%d H.append-lrecords {%s}@." e.idx e.pid
          (String.concat ", "
             (List.map
                (fun (l : Hrep.lrecord) ->
                  Printf.sprintf "L[->q%d][%d]" l.dest l.index)
                recs)))
    trace

(* The completed M-operations of an object, in completion order, each
   numbered by its simulator's count ([op#k] is that simulator's serial
   [k], as its journal names it). *)
let pp_mops fmt aug =
  let serials = Array.make (Aug.config aug).f 0 in
  Aug.iter_log aug (fun mop ->
      let proc = Aug.mop_proc mop in
      serials.(proc) <- serials.(proc) + 1;
      Format.fprintf fmt "q%d op#%d " proc serials.(proc);
      match mop with
      | Aug.Scan_op { start_idx; end_idx; view; n_ops; _ } ->
        Format.fprintf fmt "M.Scan       -> %a   (H-steps %d..%d, %d ops)@."
          pp_view view start_idx end_idx n_ops
      | Aug.Bu_op { ts; updates; start_idx; end_idx; x_idx; result; _ } -> (
        match result with
        | Aug.Atomic { view; _ } ->
          Format.fprintf fmt
            "M.BlockUpdate %a ts=%s atomic, past view %a   (H-steps %d..%d, \
             X at %d)@."
            pp_updates updates (Vts.show ts) pp_view view start_idx end_idx
            x_idx
        | Aug.Yield ->
          Format.fprintf fmt
            "M.BlockUpdate %a ts=%s YIELD   (H-steps %d..%d, X at %d)@."
            pp_updates updates (Vts.show ts) start_idx end_idx x_idx))

let pp_zeta fmt zeta =
  Format.fprintf fmt "%s"
    (String.concat "; "
       (List.map
          (function
            | Journal.Zscan view ->
              Format.asprintf "scan->%a" pp_view view
            | Journal.Zupdate (j, v) ->
              Printf.sprintf "upd %d:=%s" j (Value.show v))
          zeta))

(* One simulator's journal: its revisions (with ζ), adopted outputs and
   final β·ξ tail. *)
let pp_journal fmt ~sim journal =
  List.iter
    (fun event ->
      match event with
      | Journal.Jrevise { after_serial; proc; source_serial; zeta } ->
        Format.fprintf fmt
          "  q%d REVISES the past of its process %d after op#%d, using the \
           view of op#%d:@.      ζ = %a@."
          sim (proc + 1) after_serial source_serial pp_zeta zeta
      | Journal.Jfinal { beta; xi; output } ->
        Format.fprintf fmt
          "  q%d FINAL block β = %a, then solo run ξ (%d steps) -> %s@." sim
          pp_updates beta (List.length xi) (Value.show output)
      | Journal.Jdecided { proc; value } ->
        Format.fprintf fmt "  q%d adopts the output of its process %d: %s@." sim
          (proc + 1) (Value.show value))
    journal

let pp_run fmt spec (result : Harness.result) =
  Format.fprintf fmt "%s@." (Harness.architecture spec);
  Format.fprintf fmt "--- M-operations (completion order) ---@.";
  pp_mops fmt result.Harness.aug;
  Format.fprintf fmt "--- simulator journals ---@.";
  Array.iteri (fun sim j -> pp_journal fmt ~sim j) result.Harness.journals;
  Format.fprintf fmt "--- outcome ---@.";
  Format.fprintf fmt "wait-free: %b, %d H-operations@." result.Harness.all_done
    result.Harness.total_ops;
  List.iter
    (fun (i, v) -> Format.fprintf fmt "simulator q%d output %s@." i (Value.show v))
    result.Harness.outputs
