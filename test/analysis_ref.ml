(* The Lemma 26 replay as it was before it read the §3 spec's trace
   index: hash tables keyed by (simulator, timestamp) and (simulator,
   serial), the linearization as a list, and a walk over the whole trace
   for every revision's window start. Kept verbatim, apart from the
   opens, the alias below and the type equations, as the reference that
   the equivalence test in test_simulation.ml compares
   {!Rsim_simulation.Analysis.check} against. [Aug_spec_ref] supplies
   the list-form [linearize] and [window_start] this code was written
   against. *)

open Rsim_value
open Rsim_shmem
open Rsim_augmented
open Rsim_simulation
module Aug_spec = Aug_spec_ref

type stats = Analysis.stats = {
  n_lin_items : int;
  n_revisions : int;
  n_hidden_steps : int;
  n_final_steps : int;
  n_sim_steps : int;
}

type report = Analysis.report = {
  ok : bool;
  errors : string list;
  stats : stats;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ok=%b lin=%d revisions=%d hidden=%d final=%d sim-steps=%d@,errors:@,%a@]"
    r.ok r.stats.n_lin_items r.stats.n_revisions r.stats.n_hidden_steps
    r.stats.n_final_steps r.stats.n_sim_steps
    (Format.pp_print_list Format.pp_print_string)
    r.errors

(* One item of the simulated execution σ̄, positioned on the real
   timeline: (trace index, phase) with phase 0 for linearized M-steps
   and 1 for ζ insertions at the same index. *)
type sim_item =
  | Real_scan of { sim : int; view : Value.t array }
  | Real_update of { sim : int; g : int; comp : int; value : Value.t }
  | Hidden of { sim : int; g : int; zeta : Journal.zeta_step list }

let check (spec : Harness.spec) (result : Harness.result) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let empty_stats =
    { n_lin_items = 0; n_revisions = 0; n_hidden_steps = 0; n_final_steps = 0;
      n_sim_steps = 0 }
  in
  if not result.Harness.all_done then begin
    err "analysis requires a completed run (some simulator still pending)";
    { ok = false; errors = List.rev !errors; stats = empty_stats }
  end
  else begin
    let aug = result.Harness.aug in
    let trace = result.Harness.trace in
    let part = result.Harness.partition in

    (* ---- 1. Match each simulator's completed M-ops (Aug log) with its
       journal events, in per-simulator order. ---- *)
    let log = Aug.log aug in
    let per_sim_mops = Array.make spec.Harness.f [] in
    List.iter
      (fun mop ->
        let p = Aug.mop_proc mop in
        per_sim_mops.(p) <- mop :: per_sim_mops.(p))
      log;
    Array.iteri (fun i l -> per_sim_mops.(i) <- List.rev l) per_sim_mops;
    (* serial (1-based) -> mop, per simulator; plus lookup tables used to
       map linearized items back to journal serials. *)
    let scan_target = Hashtbl.create 64 in
    (* (sim, end_idx) -> unit: a completed M.Scan *)
    let bu_info = Hashtbl.create 64 in
    (* (sim, ts) -> (serial, updates, x_idx, last option); timestamps are
       immutable, so they key the table as they are *)
    let serial_to_mop = Hashtbl.create 64 in
    Array.iteri
      (fun i mops ->
        let journal_ops =
          Array.of_list
            (List.filter_map
               (function
                 | (Journal.Jscan _ | Journal.Jbu _) as e -> Some e
                 | Journal.Jrevise _ | Journal.Jfinal _ | Journal.Jdecided _ ->
                   None)
               (Journal.events result.Harness.journals.(i)))
        in
        let n_journal_ops = Array.length journal_ops in
        (if List.length mops <> n_journal_ops then
           err "simulator %d: %d M-ops in Aug log but %d in journal" i
             (List.length mops) n_journal_ops);
        List.iteri
          (fun k mop ->
            let journal_op =
              if k < n_journal_ops then Some journal_ops.(k) else None
            in
            match (mop, journal_op) with
            | Aug.Scan_op { end_idx; _ }, Some (Journal.Jscan { serial; _ }) ->
              Hashtbl.replace scan_target (i, end_idx) serial;
              Hashtbl.replace serial_to_mop (i, serial) mop
            | ( Aug.Bu_op { ts; updates; x_idx; result = bures; _ },
                Some (Journal.Jbu { serial; _ }) ) ->
              let last =
                match bures with
                | Aug.Atomic { last; _ } -> Some last
                | Aug.Yield -> None
              in
              Hashtbl.replace bu_info (i, ts) (serial, updates, x_idx, last);
              Hashtbl.replace serial_to_mop (i, serial) mop
            | _, _ -> err "simulator %d: journal/log kind mismatch at op %d" i k)
          mops)
      per_sim_mops;

    (* ---- 2. Linearized M-steps, as σ items with positions. ---- *)
    let litems = Aug_spec.linearize aug trace in
    let positioned = ref [] in
    let push pos phase item = positioned := ((pos, phase), item) :: !positioned in
    List.iter
      (fun litem ->
        match litem with
        | Aug_spec.L_scan { proc; view; end_idx } ->
          push end_idx 0 (Real_scan { sim = proc; view })
        | Aug_spec.L_update { writer; ts; comp; value; lin_idx; _ } -> (
          match Hashtbl.find_opt bu_info (writer, ts) with
          | None ->
            err "update by q%d (ts %s) has no completed Block-Update" writer
              (Vts.show ts)
          | Some (_, updates, _, _) -> (
            match
              List.find_index (fun (j, _) -> j = comp) updates
            with
            | None ->
              err "update to %d not found in its Block-Update by q%d" comp
                writer
            | Some g ->
              push lin_idx 0 (Real_update { sim = writer; g; comp; value }))))
      litems;

    (* ---- 3. ζ insertions at the window starts of their source
       Block-Updates. ---- *)
    let n_revisions = ref 0 in
    let n_hidden = ref 0 in
    Array.iteri
      (fun i journal ->
        List.iter
          (function
            | Journal.Jrevise { proc; source_serial; zeta; _ } -> (
              incr n_revisions;
              n_hidden := !n_hidden + List.length zeta;
              match Hashtbl.find_opt serial_to_mop (i, source_serial) with
              | Some (Aug.Bu_op { x_idx; result = Aug.Atomic { last; _ }; _ })
                -> (
                match Aug_spec.window_start ~trace ~last ~x_idx with
                | Some l_idx -> push l_idx 1 (Hidden { sim = i; g = proc; zeta })
                | None ->
                  err "simulator %d: cannot locate window start of source BU"
                    i)
              | Some _ | None ->
                err
                  "simulator %d: revision sourced from serial %d which is not \
                   an atomic Block-Update"
                  i source_serial)
            | Journal.Jscan _ | Journal.Jbu _ | Journal.Jfinal _
            | Journal.Jdecided _ -> ())
          (Journal.events journal))
      result.Harness.journals;

    (* Stable sort by (position, phase); original push order breaks ties
       (it already respects linearization order for same-position
       updates). *)
    let items =
      List.stable_sort
        (fun ((p1, ph1), _) ((p2, ph2), _) ->
          let c = Int.compare p1 p2 in
          if c <> 0 then c else Int.compare ph1 ph2)
        (List.rev !positioned)
    in

    (* ---- 4. Replay σ̄ from the initial configuration. ---- *)
    let inputs = Array.of_list spec.Harness.inputs in
    let sim_of_pid = Hashtbl.create 16 in
    Array.iteri
      (fun i pids -> Array.iter (fun pid -> Hashtbl.replace sim_of_pid pid i) pids)
      part;
    let procs = Hashtbl.create 16 in
    Hashtbl.iter
      (fun pid i -> Hashtbl.replace procs pid (spec.Harness.protocol pid inputs.(i)))
      sim_of_pid;
    let mem = ref (Snapshot.create ~m:spec.Harness.m) in
    let n_sim_steps = ref 0 in
    let get_proc pid = Hashtbl.find procs pid in
    let set_proc pid p = Hashtbl.replace procs pid p in
    let step_scan_checked ~what pid view =
      incr n_sim_steps;
      let p = get_proc pid in
      match Proc.poised p with
      | Proc.Scan ->
        let actual = Snapshot.scan !mem in
        if not (Array.for_all2 Value.equal actual view) then
          err "%s: scan by p%d saw a view different from replayed M" what pid;
        set_proc pid (Proc.step_scan p actual)
      | Proc.Update _ | Proc.Output _ ->
        err "%s: p%d was not poised to scan" what pid
    in
    let step_update_checked ~what pid comp value =
      incr n_sim_steps;
      let p = get_proc pid in
      match Proc.poised p with
      | Proc.Update (j, v) when j = comp && Value.equal v value ->
        mem := Snapshot.update !mem comp value;
        set_proc pid (Proc.step_update p)
      | Proc.Update (j, v) ->
        err "%s: p%d poised to update (%d,%s), not (%d,%s)" what pid j
          (Value.show v) comp (Value.show value)
      | Proc.Scan | Proc.Output _ ->
        err "%s: p%d was not poised to update" what pid
    in
    List.iter
      (fun (_, item) ->
        match item with
        | Real_scan { sim; view } ->
          step_scan_checked ~what:"Lemma 26 (scan)" part.(sim).(0) view
        | Real_update { sim; g; comp; value } ->
          if g >= Array.length part.(sim) then
            err "Block-Update by q%d touches process %d beyond its partition"
              sim g
          else
            step_update_checked ~what:"Lemma 26 (update)" part.(sim).(g) comp
              value
        | Hidden { sim; g; zeta } ->
          let pid = part.(sim).(g) in
          List.iter
            (function
              | Journal.Zscan view ->
                step_scan_checked ~what:"Lemma 26 (hidden scan)" pid view
              | Journal.Zupdate (j, v) ->
                step_update_checked ~what:"Lemma 26 (hidden update)" pid j v)
            zeta)
      items;

    (* ---- 5. Append each covering simulator's β·ξ tail (Lemma 27) and
       check outputs. ---- *)
    let n_final = ref 0 in
    Array.iteri
      (fun i journal ->
        List.iter
          (function
            | Journal.Jfinal { beta; xi; output } ->
              List.iteri
                (fun g (j, v) ->
                  incr n_final;
                  step_update_checked ~what:"Lemma 27 (final block)"
                    part.(i).(g) j v)
                beta;
              let pid = part.(i).(0) in
              List.iter
                (function
                  | Journal.Zscan view ->
                    incr n_final;
                    step_scan_checked ~what:"Lemma 27 (final solo)" pid view
                  | Journal.Zupdate (j, v) ->
                    incr n_final;
                    step_update_checked ~what:"Lemma 27 (final solo)" pid j v)
                xi;
              (match Proc.output (get_proc pid) with
              | Some y when Value.equal y output -> ()
              | Some y ->
                err
                  "Lemma 27: simulator %d output %s but its replayed process \
                   output %s"
                  i (Value.show output) (Value.show y)
              | None ->
                err "Lemma 27: simulator %d's final solo run did not terminate"
                  i)
            | Journal.Jdecided { proc; value } -> (
              let pid = part.(i).(proc) in
              match Proc.output (get_proc pid) with
              | Some y when Value.equal y value -> ()
              | Some y ->
                err
                  "Lemma 26: simulator %d adopted %s but replayed p%d output \
                   %s"
                  i (Value.show value) pid (Value.show y)
              | None ->
                err "Lemma 26: simulator %d adopted a value but replayed p%d \
                     never output"
                  i pid)
            | Journal.Jscan _ | Journal.Jbu _ | Journal.Jrevise _ -> ())
          (Journal.events journal))
      result.Harness.journals;

    (* Every simulator's harness-reported output must match its journal. *)
    List.iter
      (fun (i, v) ->
        let journal_out =
          List.find_map
            (function
              | Journal.Jfinal { output; _ } -> Some output
              | Journal.Jdecided { value; _ } -> Some value
              | _ -> None)
            (Journal.events result.Harness.journals.(i))
        in
        match journal_out with
        | Some y when Value.equal y v -> ()
        | Some y ->
          err "simulator %d reported %s but journalled %s" i (Value.show v)
            (Value.show y)
        | None -> err "simulator %d reported an output but journalled none" i)
      result.Harness.outputs;

    let stats =
      {
        n_lin_items = List.length litems;
        n_revisions = !n_revisions;
        n_hidden_steps = !n_hidden;
        n_final_steps = !n_final;
        n_sim_steps = !n_sim_steps + !n_final;
      }
    in
    { ok = !errors = []; errors = List.rev !errors; stats }
  end
