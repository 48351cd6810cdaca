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
    let part = result.Harness.partition in
    let ix = Aug_spec.index aug result.Harness.trace in

    (* ---- 1. Match each simulator's completed M-ops (Aug log) with its
       journal events, in per-simulator order. [paired.(p)]: log entry
       [p] met a journal event of its kind; [serials.(i)]: simulator
       [i]'s (serial, log position) pairings, latest first. ---- *)
    let log = Array.of_list (Aug.log aug) in
    let paired = Array.make (Array.length log) false in
    let per_sim = Array.make spec.Harness.f [] in
    for p = Array.length log - 1 downto 0 do
      let i = Aug.mop_proc log.(p) in
      per_sim.(i) <- p :: per_sim.(i)
    done;
    let serials = Array.make spec.Harness.f [] in
    Array.iteri
      (fun i mine ->
        let journal_ops =
          Array.of_list
            (List.filter
               (function
                 | Journal.Jscan _ | Journal.Jbu _ -> true
                 | Journal.Jrevise _ | Journal.Jfinal _ | Journal.Jdecided _ ->
                   false)
               (Journal.events result.Harness.journals.(i)))
        in
        let n_journal_ops = Array.length journal_ops in
        (if List.length mine <> n_journal_ops then
           err "simulator %d: %d M-ops in Aug log but %d in journal" i
             (List.length mine) n_journal_ops);
        List.iteri
          (fun k p ->
            match
              (log.(p), if k < n_journal_ops then Some journal_ops.(k) else None)
            with
            | Aug.Scan_op _, Some (Journal.Jscan { serial; _ })
            | Aug.Bu_op _, Some (Journal.Jbu { serial; _ }) ->
              paired.(p) <- true;
              serials.(i) <- (serial, p) :: serials.(i)
            | _, _ -> err "simulator %d: journal/log kind mismatch at op %d" i k)
          mine)
      per_sim;

    (* ---- 2. The linearized M-steps. An Update maps to a simulated
       step through its paired Block-Update, as the [g]-th update of
       that block. ---- *)
    let mapped u =
      let p = Aug_spec.bu_of ix u in
      p >= 0 && paired.(p)
    in
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
                Option.map (Array.get log)
                  (List.assoc_opt source_serial serials.(i))
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
            | Journal.Jscan _ | Journal.Jbu _ | Journal.Jfinal _
            | Journal.Jdecided _ -> ())
          (Journal.events journal))
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
        n_lin_items = !n_lin;
        n_revisions = !n_revisions;
        n_hidden_steps = !n_hidden;
        n_final_steps = !n_final;
        n_sim_steps = !n_sim_steps + !n_final;
      }
    in
    { ok = !errors = []; errors = List.rev !errors; stats }
  end
