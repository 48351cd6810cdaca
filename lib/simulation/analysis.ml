open Rsim_value
open Rsim_shmem
open Rsim_augmented

type stats = {
  n_lin_items : int;
  n_revisions : int;
  n_hidden_steps : int;
  n_final_steps : int;
  n_sim_steps : int;
}

type report = { ok : bool; errors : string list; stats : stats }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ok=%b lin=%d revisions=%d hidden=%d final=%d sim-steps=%d@,errors:@,%a@]"
    r.ok r.stats.n_lin_items r.stats.n_revisions r.stats.n_hidden_steps
    r.stats.n_final_steps r.stats.n_sim_steps
    (Format.pp_print_list Format.pp_print_string)
    r.errors

(* A hidden execution ζ of simulator [sim]'s [g]-th process, inserted
   into σ̄ just after the real M-steps linearized at or before trace
   index [at]. *)
type insertion = { at : int; sim : int; g : int; zeta : Journal.zeta_step list }

(* The first restart in a run's fault events, if any. *)
let first_restart (result : Harness.result) =
  List.find_map
    (function
      | Rsim_runtime.Prog.Ev_restart { pid; at; incarnation } ->
        Some (pid, at, incarnation)
      | _ -> None)
    result.Harness.report.Harness.events

let check (spec : Harness.spec) (result : Harness.result) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let refuse fmt =
    Format.kasprintf
      (fun e ->
        {
          ok = false;
          errors = [ e ];
          stats =
            { n_lin_items = 0; n_revisions = 0; n_hidden_steps = 0;
              n_final_steps = 0; n_sim_steps = 0 };
        })
      fmt
  in
  match (result.Harness.all_done, first_restart result) with
  | false, _ ->
    refuse "analysis requires a completed run (some simulator still pending)"
  | true, Some (pid, at, incarnation) ->
    (* A restarted simulator numbers its serials from 1 again, and σ̄
       has no process that starts over. *)
    refuse
      "analysis does not model restarts: simulator %d restarted at \
       H-operation %d (incarnation %d)"
      pid at incarnation
  | true, None ->
    let part = result.Harness.partition in
    let ix = result.Harness.index in

    (* ---- 1. Simulator [i]'s serial [s] is its [s]-th M-operation in
       the log: [mops.(i).(s - 1)]. ---- *)
    let mops =
      let rev = Array.make spec.Harness.f [] in
      Aug.iter_log result.Harness.aug (fun mop ->
          let i = Aug.mop_proc mop in
          rev.(i) <- mop :: rev.(i));
      Array.map (fun l -> Array.of_list (List.rev l)) rev
    in

    (* ---- 2. The linearized M-steps. An Update maps to a simulated
       step through its completed Block-Update, as the [g]-th update of
       that block. ---- *)
    let mapped u = Aug_spec.bu_of ix u >= 0 in
    let n_lin = ref 0 in
    Aug_spec.iter_lin ix
      ~update:(fun u ->
        incr n_lin;
        if not (mapped u) then
          err "update by q%d (ts %s) has no completed Block-Update" u.u_writer
            (Vts.show u.u_ts))
      ~scan:(fun _ -> incr n_lin);

    (* ---- 3. ζ insertions at the window starts of their source
       Block-Updates. ---- *)
    let n_revisions = ref 0 in
    let n_hidden = ref 0 in
    let insertions = ref [] in
    Array.iteri
      (fun i journal ->
        List.iter
          (function
            | Journal.Jrevise { proc; source_serial; zeta; _ } -> (
              incr n_revisions;
              n_hidden := !n_hidden + List.length zeta;
              match
                if source_serial >= 1 && source_serial <= Array.length mops.(i)
                then Some mops.(i).(source_serial - 1)
                else None
              with
              | Some (Aug.Bu_op { x_idx; result = Aug.Atomic { last; _ }; _ })
                -> (
                match Aug_spec.window_start ix ~last ~x_idx with
                | Some at ->
                  insertions := { at; sim = i; g = proc; zeta } :: !insertions
                | None ->
                  err "simulator %d: cannot locate window start of source BU"
                    i)
              | Some _ | None ->
                err
                  "simulator %d: revision sourced from serial %d which is not \
                   an atomic Block-Update"
                  i source_serial)
            | Journal.Jfinal _ | Journal.Jdecided _ -> ())
          journal)
      result.Harness.journals;
    let to_insert =
      ref
        (List.stable_sort
           (fun a b -> Int.compare a.at b.at)
           (List.rev !insertions))
    in

    (* ---- 4. Replay σ̄ from the initial configuration. ---- *)
    let inputs = Array.of_list spec.Harness.inputs in
    (* the replayed simulated processes, by global pid *)
    let procs =
      Array.make (Array.fold_left (fun n pids -> n + Array.length pids) 0 part)
        None
    in
    Array.iteri
      (fun i pids ->
        Array.iter
          (fun pid -> procs.(pid) <- Some (spec.Harness.protocol pid inputs.(i)))
          pids)
      part;
    let mem = ref (Snapshot.create ~m:spec.Harness.m) in
    let n_sim_steps = ref 0 in
    let get_proc pid = Option.get procs.(pid) in
    let set_proc pid p = procs.(pid) <- Some p in
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
    (* σ̄ in order: the linearized M-steps, each ζ just after the steps
       linearized at or before its window start. *)
    let insert_before pos =
      let rec go = function
        | { at; sim; g; zeta } :: rest when at < pos ->
          let pid = part.(sim).(g) in
          List.iter
            (function
              | Journal.Zscan view ->
                step_scan_checked ~what:"Lemma 26 (hidden scan)" pid view
              | Journal.Zupdate (j, v) ->
                step_update_checked ~what:"Lemma 26 (hidden update)" pid j v)
            zeta;
          go rest
        | rest -> to_insert := rest
      in
      go !to_insert
    in
    Aug_spec.iter_lin ix
      ~update:(fun u ->
        if mapped u then begin
          insert_before u.u_lin;
          let sim = u.u_writer and g = u.u_g in
          if g >= Array.length part.(sim) then
            err "Block-Update by q%d touches process %d beyond its partition"
              sim g
          else
            step_update_checked ~what:"Lemma 26 (update)" part.(sim).(g)
              u.u_comp u.u_value
        end)
      ~scan:(fun s ->
        insert_before s.s_end;
        step_scan_checked ~what:"Lemma 26 (scan)" part.(s.s_proc).(0) s.s_view);
    insert_before max_int;

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
            | Journal.Jrevise _ -> ())
          journal)
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
            result.Harness.journals.(i)
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
        n_lin_items = !n_lin;
        n_revisions = !n_revisions;
        n_hidden_steps = !n_hidden;
        n_final_steps = !n_final;
        n_sim_steps = !n_sim_steps + !n_final;
      }
    in
    { ok = !errors = []; errors = List.rev !errors; stats }
