(* The exhaustive engine as it was before it saved run states: a
   single-domain DFS over schedule prefixes that re-executes every
   prefix from scratch (O(L²) hops per leaf) and executes each leaf once
   more to judge it. Written over the public [workload.exec],
   [Explore.replay] and [Explore.shrink], it is the reference that
   test_explore.ml's "engine matches naive DFS" compares
   {!Rsim_explore.Explore.exhaustive} against, node for node, with
   [dedup] off at one domain. Same report shape, with [dedup_hits] and
   [pruned] 0 and [domains] 1. *)

open Rsim_shmem
open Rsim_explore

(* Shrink a caught script, and keep it unless an earlier violation
   shrank to the same one; the errors are those of the shrunk script. *)
let record_violation w ~max_steps acc ~script ~errors =
  let shrunk = Explore.shrink w ~max_steps ~script in
  if List.exists (fun (v : Explore.violation) -> v.script = shrunk) acc then
    acc
  else
    let errs = (Explore.replay w ~max_steps ~script:shrunk).errors in
    {
      Explore.script = shrunk;
      original = script;
      errors = (if errs = [] then errors else errs);
    }
    :: acc

let exhaustive ?(max_steps = 64) ?preemption_bound ?(max_violations = 1)
    (w : Explore.workload) =
  let complete = ref 0 in
  let truncated = ref 0 in
  let prefixes = ref 0 in
  let executions = ref 0 in
  let violations = ref [] in
  let stop = ref false in
  let leaf ~cut script =
    if cut then incr truncated else incr complete;
    incr executions;
    let out = Explore.replay w ~max_steps ~script in
    if out.errors <> [] then begin
      violations :=
        record_violation w ~max_steps !violations
          ~script:(Explore.script_of out) ~errors:out.errors;
      if List.length !violations >= max_violations then stop := true
    end
  in
  (* [last] is the pid of the previous step, [preempts] the context
     switches away from a still-live process so far. *)
  let rec go rev_script nsteps preempts last =
    if not !stop then begin
      incr prefixes;
      incr executions;
      let script = List.rev rev_script in
      let out =
        w.exec ~probe:None ~certify:false ~sched:(Schedule.script script)
          ~max_ops:max_steps ~check:false
      in
      if out.live = [] then leaf ~cut:false script
      else if nsteps >= max_steps then leaf ~cut:true script
      else begin
        let choices =
          match preemption_bound with
          | Some b when preempts >= b && last >= 0 && List.mem last out.live ->
            [ last ]
          | _ -> out.live
        in
        List.iter
          (fun pid ->
            let preempts' =
              if last >= 0 && pid <> last && List.mem last out.live then
                preempts + 1
              else preempts
            in
            go (pid :: rev_script) (nsteps + 1) preempts' pid)
          choices
      end
    end
  in
  go [] 0 0 (-1);
  {
    Explore.complete = !complete;
    truncated = !truncated;
    prefixes = !prefixes;
    executions = !executions;
    dedup_hits = 0;
    pruned = 0;
    domains = 1;
    violations = List.rev !violations;
  }
