open Rsim_shmem
open Rsim_augmented
open Aug.Prog

(* What a covering simulator carries from one M-operation to the next:
   its simulated processes (slot g-1 holds p_{i,g}) and the serial of
   its last M-operation. *)
type state = { procs : Proc.t array; serial : int }

let set procs g p =
  let procs = Array.copy procs in
  procs.(g) <- p;
  procs

(* Locally simulate [p] against a private copy of M whose contents start
   as [view], applying only updates to components in [allowed], until it
   is poised to update a component outside [allowed] or outputs. Returns
   the final state, the hidden steps ζ (in order) and the outcome. *)
let local_simulate ~local_cap ~g p ~view ~allowed =
  let rec go p local steps zeta =
    if steps > local_cap then
      failwith
        (Printf.sprintf
           "Covering_sim: local simulation of process %d exceeded %d steps — \
            protocol is not obstruction-free within the cap"
           g local_cap);
    match Proc.poised p with
    | Proc.Scan ->
      let v = Snapshot.scan local in
      go (Proc.step_scan p v) local (steps + 1) (Journal.Zscan v :: zeta)
    | Proc.Update (j, v) when List.mem j allowed ->
      go (Proc.step_update p) (Snapshot.update local j v) (steps + 1)
        (Journal.Zupdate (j, v) :: zeta)
    | Proc.Update (j, v) -> (p, List.rev zeta, `Poised (j, v))
    | Proc.Output y -> (p, List.rev zeta, `Out y)
  in
  go p (Snapshot.of_view view) 0 []

(* Algorithm 7's last step: p_{i,1}'s terminating solo run after the
   block β, simulated locally from M's initial contents. Returns the
   output and the steps ξ. *)
let final_solo ~local_cap ~m p1 beta =
  let local =
    List.fold_left
      (fun mem (j, v) -> Snapshot.update mem j v)
      (Snapshot.create ~m) beta
  in
  let rec solo p local steps xi =
    if steps > local_cap then
      failwith
        "Covering_sim: final solo execution exceeded the cap — protocol is \
         not obstruction-free within the cap";
    match Proc.poised p with
    | Proc.Scan ->
      let v = Snapshot.scan local in
      solo (Proc.step_scan p v) local (steps + 1) (Journal.Zscan v :: xi)
    | Proc.Update (j, v) ->
      solo (Proc.step_update p) (Snapshot.update local j v) (steps + 1)
        (Journal.Zupdate (j, v) :: xi)
    | Proc.Output y -> (y, List.rev xi)
  in
  solo p1 local 0 []

let program (cfg : Aug.config) ~me ~procs ~local_cap =
  if Array.length procs <> cfg.m then
    invalid_arg "Covering_sim.program: need exactly m simulated processes";
  let journal event = emit (Journal.Entry { sim = me; event }) in
  (* A simulated process output: the simulator adopts it and stops. *)
  let decide ~proc value = journal (Journal.Jdecided { proc; value }) in
  (* Algorithm 6, in continuation-passing style: [construct st r k]
     constructs a block update [(j1,v1)...(jr,vr)], where process slot
     g-1 is poised to perform Update (jg, vg), and passes it to [k] with
     the state reached; a decision ends the program instead. *)
  let rec construct st r k =
    if r = 1 then
      (* Base case: simulate p_{i,1}'s next step (a scan) with M.Scan. *)
      let* view = Aug.scan_prog cfg ~me in
      let serial = st.serial + 1 in
      let* () = journal (Journal.Jscan { serial; view }) in
      let p = Proc.step_scan st.procs.(0) view in
      let st = { procs = set st.procs 0 p; serial } in
      match Proc.poised p with
      | Proc.Update (j, v) -> k st [ (j, v) ]
      | Proc.Output y -> decide ~proc:0 y
      | Proc.Scan ->
        failwith "Covering_sim: protocol violates Assumption 1 (scan after scan)"
    else
      (* [seen] holds (component set, view, serial of the atomic
         Block-Update that returned the view) — the paper's A. *)
      let rec loop st seen =
        construct st (r - 1) (fun st bu ->
            let comps = List.sort Int.compare (List.map fst bu) in
            match List.find_opt (fun (comps', _, _) -> comps' = comps) seen with
            | Some (_, view, source_serial) -> (
              (* Revise the past of p_{i,r} using the stored view. *)
              let p, zeta, outcome =
                local_simulate ~local_cap ~g:(r - 1) st.procs.(r - 1) ~view
                  ~allowed:comps
              in
              let st = { st with procs = set st.procs (r - 1) p } in
              let* () =
                journal
                  (Journal.Jrevise
                     { after_serial = st.serial; proc = r - 1; source_serial; zeta })
              in
              match outcome with
              | `Poised (j, v) -> k st (bu @ [ (j, v) ])
              | `Out y -> decide ~proc:(r - 1) y)
            | None -> (
              (* Simulate the block update [bu] with an M.Block-Update;
                 afterwards processes 1..|bu| have performed their
                 poised updates. *)
              let* result = Aug.block_update_prog cfg ~me bu in
              let serial = st.serial + 1 in
              let atomic = match result with `View _ -> true | `Yield -> false in
              let* () = journal (Journal.Jbu { serial; updates = bu; atomic }) in
              let procs =
                Array.mapi
                  (fun g p -> if g < List.length bu then Proc.step_update p else p)
                  st.procs
              in
              let st = { procs; serial } in
              match result with
              | `View view -> loop st ((comps, view, serial) :: seen)
              | `Yield -> loop st seen))
      in
      loop st []
  in
  (* Algorithm 7: construct an m-block β, then locally simulate β
     followed by p_{i,1}'s terminating solo execution. *)
  construct { procs; serial = 0 } cfg.m (fun st beta ->
      let output, xi =
        final_solo ~local_cap ~m:cfg.m (Proc.step_update st.procs.(0)) beta
      in
      journal (Journal.Jfinal { beta; xi; output }))
