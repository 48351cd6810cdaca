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

(* Locally simulate [p] against [local], a private copy of M, applying
   only updates to components that [allowed] admits, until it is poised
   to update a component outside them or outputs. Returns the final
   state, the steps taken (in order) and the outcome. *)
let local_simulate ~local_cap ~g p local ~allowed =
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
    | Proc.Update (j, v) when allowed j ->
      go (Proc.step_update p) (Snapshot.update local j v) (steps + 1)
        (Journal.Zupdate (j, v) :: zeta)
    | Proc.Update (j, v) -> (p, List.rev zeta, `Poised (j, v))
    | Proc.Output y -> (p, List.rev zeta, `Out y)
  in
  go p local 0 []

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
      let p = Proc.step_scan st.procs.(0) view in
      let st = { procs = set st.procs 0 p; serial = st.serial + 1 } in
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
                local_simulate ~local_cap ~g:(r - 1) st.procs.(r - 1)
                  (Snapshot.of_view view)
                  ~allowed:(fun j -> List.mem j comps)
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
     followed by p_{i,1}'s terminating solo execution ξ, from M's initial
     contents with every component allowed. *)
  construct { procs; serial = 0 } cfg.m (fun st beta ->
      let after_beta =
        List.fold_left
          (fun mem (j, v) -> Snapshot.update mem j v)
          (Snapshot.create ~m:cfg.m) beta
      in
      match
        local_simulate ~local_cap ~g:0 (Proc.step_update st.procs.(0))
          after_beta ~allowed:(fun _ -> true)
      with
      | _, xi, `Out output -> journal (Journal.Jfinal { beta; xi; output })
      | _, _, `Poised _ -> assert false (* every update is allowed *))
