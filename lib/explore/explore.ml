open Rsim_value
open Rsim_shmem
module Aug = Rsim_augmented.Aug
module Aug_spec = Rsim_augmented.Aug_spec
module Hrep = Rsim_augmented.Hrep
module Vts = Rsim_augmented.Vts
module Harness = Rsim_simulation.Harness
module Analysis = Rsim_simulation.Analysis
module Faults = Rsim_faults.Faults
module Task = Rsim_tasks.Task
module Racing = Rsim_protocols.Racing
module Obs = Rsim_obs.Obs

(* Engine telemetry, shared by all engines and safe under parallel
   domains (atomic counters). Schedules/sec is the caller's division of
   [explore.executions] by wall time. *)
let m_execs = Obs.Metrics.counter "explore.executions"
let m_viols = Obs.Metrics.counter "explore.violations"
let m_shrink = Obs.Metrics.counter "explore.shrink.attempts"
let h_preempt = Obs.Metrics.histogram "explore.preemptions"

(* Parallel-frontier telemetry: tasks processed, tasks popped by a
   domain other than the one that pushed them, state-fingerprint dedup
   hits, and the live frontier size. *)
let m_tasks = Obs.Metrics.counter "explore.tasks"
let m_steals = Obs.Metrics.counter "explore.steals"
let m_dedup = Obs.Metrics.counter "explore.dedup.hits"
let g_frontier = Obs.Metrics.gauge "explore.frontier.depth"

(* Context switches in a schedule, the pid of each step read by
   [pid_of] — its preemption depth. Reading it backwards gives the same
   count. *)
let preemptions_of pid_of steps =
  let rec go last acc = function
    | [] -> acc
    | step :: rest ->
      let pid = pid_of step in
      if last >= 0 && pid <> last then go pid (acc + 1) rest
      else go pid acc rest
  in
  go (-1) 0 steps

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

(* How an execution gets back to a scheduling decision it passed: the
   saved state of the target that made it, keyed by the identity of the
   workload that saved it (see [of_target]). *)
type node = Node : 'saved Type.Id.t * 'saved -> node

type outcome = {
  trace : Aug.Prog.trace_entry list;
  live : int list;
  steps : int;
  errors : string list;
  judge : unit -> string list;
}

let script_of out =
  List.map (fun (e : Aug.Prog.trace_entry) -> e.pid) out.trace

(* What the exploration engine sees at every scheduling decision of a
   probed execution (see {!Rsim_runtime.Prog.probe}), and at every end
   of it ([leaf_view]). *)
type probe_view = {
  step : int;
  live : int list;
  fingerprint : unit -> (int * int) option;
  save : unit -> node;
  restore : node -> unit;
}

type leaf_view = { outcome : unit -> outcome; restore : node -> unit }

type probe = {
  decide : probe_view -> [ `Continue | `Stop ];
  leaf : leaf_view -> unit;
}

type workload = {
  name : string;
  n_procs : int;
  params : (string * int) list;
  inject : string option;
  faults : string option;
  exec :
    probe:probe option ->
    certify:bool ->
    sched:Schedule.t ->
    max_ops:int ->
    check:bool ->
    outcome;
}

type violation = {
  script : int list;
  original : int list;
  errors : string list;
}

module Oracle = struct
  type 'exec t = {
    name : string;
    on_truncated : bool;
    check : 'exec -> string list;
  }
end

(* Verdict counters are registered once per workload build (metric
   registration takes a lock), then bumped on every judged execution. *)
let oracle_counters oracles =
  List.map
    (fun (o : _ Oracle.t) ->
      ( o,
        Obs.Metrics.counter ("explore.oracle." ^ o.Oracle.name ^ ".pass"),
        Obs.Metrics.counter ("explore.oracle." ^ o.Oracle.name ^ ".fail") ))
    oracles

let judge ocs ~complete ex =
  List.concat_map
    (fun ((o : _ Oracle.t), cpass, cfail) ->
      if complete || o.Oracle.on_truncated then begin
        let errs = o.Oracle.check ex in
        (match errs with
        | [] -> Obs.Metrics.incr cpass
        | _ :: _ -> Obs.Metrics.incr cfail);
        List.map (fun e -> o.Oracle.name ^ ": " ^ e) errs
      end
      else [])
    ocs

let fault_to_string = function
  | Aug.Skip_yield_check -> "skip-yield-check"
  | Aug.Yield_on_higher -> "yield-on-higher"
  | Aug.Spin_on_yield -> "spin-on-yield"

let fault_of_string = function
  | "skip-yield-check" -> Some Aug.Skip_yield_check
  | "yield-on-higher" -> Some Aug.Yield_on_higher
  | "spin-on-yield" -> Some Aug.Spin_on_yield
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Replay and shrinking                                              *)
(* ---------------------------------------------------------------- *)

let replay w ~max_steps ~script =
  Obs.Metrics.incr m_execs;
  w.exec ~probe:None ~certify:false ~sched:(Schedule.script script)
    ~max_ops:max_steps ~check:true

let failing w ~max_steps script =
  Obs.Metrics.incr m_shrink;
  (replay w ~max_steps ~script).errors <> []

(* Greedy step removal: delete any single step whose removal keeps the
   script failing, to fixpoint. *)
let rec remove_pass w ~max_steps s =
  let n = List.length s in
  let rec try_i i =
    if i >= n then None
    else
      let cand = List.filteri (fun j _ -> j <> i) s in
      if failing w ~max_steps cand then Some cand else try_i (i + 1)
  in
  match try_i 0 with Some s' -> remove_pass w ~max_steps s' | None -> s

(* Preemption merging: move a later contiguous block of some pid to sit
   directly after an earlier block of the same pid, removing two context
   switches, whenever the script still fails. *)
let merge_pass w ~max_steps s =
  let arr = Array.of_list s in
  let n = Array.length arr in
  let blocks = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && arr.(!j) = arr.(!i) do
      incr j
    done;
    blocks := (arr.(!i), !i, !j - !i) :: !blocks;
    i := !j
  done;
  let blocks = List.rev !blocks in
  let candidate (_, s1, l1) (p2, s2, l2) =
    let pre = Array.to_list (Array.sub arr 0 (s1 + l1)) in
    let mid = Array.to_list (Array.sub arr (s1 + l1) (s2 - s1 - l1)) in
    let post = Array.to_list (Array.sub arr (s2 + l2) (n - s2 - l2)) in
    pre @ List.init l2 (fun _ -> p2) @ mid @ post
  in
  let rec pairs = function
    | [] -> None
    | ((p1, _, _) as b1) :: rest ->
      let rec inner = function
        | [] -> pairs rest
        | ((p2, _, _) as b2) :: more ->
          if p1 = p2 then begin
            let cand = candidate b1 b2 in
            if failing w ~max_steps cand then Some cand else inner more
          end
          else inner more
      in
      inner rest
  in
  pairs blocks

let shrink w ~max_steps ~script =
  if not (failing w ~max_steps script) then script
  else begin
    let rec fix s =
      let s' = remove_pass w ~max_steps s in
      match merge_pass w ~max_steps s' with
      | Some s'' -> fix s''
      | None -> s'
    in
    fix script
  end

let record_violation w ~max_steps acc ~script ~errors =
  let shrunk = shrink w ~max_steps ~script in
  if List.exists (fun (v : violation) -> v.script = shrunk) acc then acc
  else begin
    Obs.Metrics.incr m_viols;
    let errs = (replay w ~max_steps ~script:shrunk).errors in
    {
      script = shrunk;
      original = script;
      errors = (if errs = [] then errors else errs);
    }
    :: acc
  end

(* ---------------------------------------------------------------- *)
(* Exhaustive enumeration                                            *)
(* ---------------------------------------------------------------- *)

(* The parallel workers of either engine: [domains] if given, else one
   per core the main domain leaves over, up to four; at least one. *)
let domain_count = function
  | Some d -> max 1 d
  | None -> max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* An engine that may keep no violation would stop at the first one and
   drop it, and report a pass. *)
let check_max_violations engine n =
  if n < 1 then
    invalid_arg
      (Printf.sprintf "Explore.%s: max_violations must be >= 1 (got %d)" engine
         n)

type exhaustive_report = {
  complete : int;
  truncated : int;
  prefixes : int;
  executions : int;
  dedup_hits : int;
  pruned : int;
  domains : int;
  violations : violation list;
}

(* A frontier entry: a tree node to resume from ([None]: the root) and
   the decision [last] to take there (-1 at the root), which is also the
   preemption bound's last pid. [rev_prefix] is every decision from the
   root, the task's own included, latest first: the leaf's script.
   [origin] is the pushing domain, for steal accounting. *)
type frontier_task = {
  from : node option;
  rev_prefix : int list;
  preempts : int;
  last : int;
  origin : int;
}

(* The parallel prefix-sharing engine. A domain takes a task from the
   shared frontier and walks its whole subtree in one execution. From a
   task's node (the workload restores the state saved there) the
   execution goes greedily down the lowest-pid branch while the probe
   saves one sibling task per other branch. At the leaf the execution
   reports its end: the engine judges the leaf, pushes the task's
   siblings onto the walk's own stack, and restores the next task on it,
   so the same execution goes on from there. Every tree edge is then
   executed exactly once, and each task still counts as one execution.

   The walk's stack holds its tasks in the order the shared frontier
   would, so at one domain the walk order is the order of a shared
   frontier that every task goes through. When another domain is
   waiting for work (one atomic read per leaf), the walker donates the
   bottom half of its stack to the shared frontier: it goes on with the
   tasks one domain would take next, so an early stop more often keeps
   the violation one domain finds first.

   Determinism: state claims are atomic, and equal (fingerprint, depth,
   bound-state) keys have equal futures, so absent an early stop all
   counts are reproducible regardless of the number of domains or of
   which racing task wins a claim. Violation scripts are not: the winner
   of a claim race becomes the prefix that represents the merged state,
   and an early stop keeps whichever raw violations arrived first. *)
let exhaustive ?(max_steps = 64) ?preemption_bound ?(max_violations = 1)
    ?domains ?dedup w =
  check_max_violations "exhaustive" max_violations;
  let domains = domain_count domains in
  (* Under a preemption bound the state key carries the preemption count
     and the last pid, so few states merge and claiming costs more than
     it cuts: dedup is off there unless asked for. Injected faults give
     reached states a clock-dependent component (restart delays) the
     fingerprint cannot see, so dedup is unsound there and switches
     itself off. *)
  let dedup =
    Option.value dedup ~default:(preemption_bound = None) && w.faults = None
  in
  (* Sharded claim table: a state key is claimed by exactly one task;
     everyone else is pruned. Each shard's [Hashtbl] picks a bucket from
     the low bits of the key's hash, so the shard comes from the high
     bits (24-29 of the 30-bit hash): from the low bits, every key in a
     shard would share them, and its table would use 1/64 of its
     buckets. *)
  let shards =
    (Array.init 64 (fun _ -> (Mutex.create (), Hashtbl.create 251))
    [@rsim.shared "each shard's table is only touched under its mutex"])
  in
  let claim key =
    let mu, tbl = shards.((Hashtbl.hash key lsr 24) land 63) in
    Mutex.lock mu;
    let fresh = not (Hashtbl.mem tbl key) in
    if fresh then Hashtbl.add tbl key ();
    Mutex.unlock mu;
    fresh
  in
  (* Shared LIFO frontier: a mutex-and-condition chunked queue. [pop]
     blocks while walks are in flight (they may donate tasks); the last
     domain to drain it broadcasts termination. [waiting] counts the
     domains blocked in [pop], for walkers to read without the lock. *)
  let fmu = Mutex.create () in
  let fcv = Condition.create () in
  let stack = (ref [] [@rsim.shared "guarded by fmu"]) in
  let fsize = (ref 0 [@rsim.shared "guarded by fmu"]) in
  let in_flight = (ref 0 [@rsim.shared "guarded by fmu"]) in
  let finished = (ref false [@rsim.shared "guarded by fmu"]) in
  let stop = Atomic.make false in
  let waiting = Atomic.make 0 in
  let push ts =
    if ts <> [] then begin
      Mutex.lock fmu;
      stack := List.rev_append ts !stack;
      fsize := !fsize + List.length ts;
      Obs.Metrics.set g_frontier !fsize;
      Condition.broadcast fcv;
      Mutex.unlock fmu
    end
  in
  let pop d =
    Mutex.lock fmu;
    let rec wait () =
      if !finished then begin
        Mutex.unlock fmu;
        None
      end
      else
        match !stack with
        | t :: rest ->
          stack := rest;
          decr fsize;
          incr in_flight;
          Obs.Metrics.set g_frontier !fsize;
          Mutex.unlock fmu;
          if t.origin <> d then Obs.Metrics.incr m_steals;
          Some t
        | [] ->
          if !in_flight = 0 then begin
            finished := true;
            Condition.broadcast fcv;
            Mutex.unlock fmu;
            None
          end
          else begin
            Atomic.incr waiting;
            Condition.wait fcv fmu;
            Atomic.decr waiting;
            wait ()
          end
    in
    wait ()
  in
  let task_done () =
    Mutex.lock fmu;
    decr in_flight;
    if !in_flight = 0 && !stack = [] then begin
      finished := true;
      Condition.broadcast fcv
    end;
    Mutex.unlock fmu
  in
  let halt () =
    Atomic.set stop true;
    Mutex.lock fmu;
    finished := true;
    Condition.broadcast fcv;
    Mutex.unlock fmu
  in
  (* The decisions a task's schedule returns, built once: [picks.(p)] is
     [Some p] for each of the workload's pids. *)
  let picks =
    (Array.init w.n_procs Option.some
    [@rsim.shared "read-only after it is built"])
  in
  let n_complete = Atomic.make 0 in
  let n_trunc = Atomic.make 0 in
  let n_nodes = Atomic.make 0 in
  let n_exec = Atomic.make 0 in
  let n_dedup = Atomic.make 0 in
  (* Raw (unshrunk) violations; merged deterministically after the
     join. The early stop is atomic but advisory — in-flight tasks may
     report a few extra raw violations, which the sorted merge then
     truncates identically on every run that was not stopped early. *)
  let vmu = Mutex.create () in
  let raw = (ref [] [@rsim.shared "guarded by vmu"]) in
  let nraw = (ref 0 [@rsim.shared "guarded by vmu"]) in
  let report_raw rev_script errors =
    let script = List.rev rev_script in
    Mutex.lock vmu;
    raw := (script, errors) :: !raw;
    incr nraw;
    let enough = !nraw >= max_violations in
    Mutex.unlock vmu;
    if enough then halt ()
  in
  (* Walk the subtree of [t], popped from the shared frontier, in one
     execution. *)
  let walk d (t : frontier_task) =
    (* The walk's own tasks, next first, in the order the shared
       frontier would hold them. *)
    let local = ref [] in
    let from = ref t.from in
    let rev_path = ref [] in
    let preempts = ref 0 in
    let last = ref (-1) in
    let next_pick = ref (-1) in
    let children = ref [] in
    let aborted = ref false in
    let cut_off = ref false in
    let start (t : frontier_task) =
      Atomic.incr n_exec;
      Obs.Metrics.incr m_execs;
      Obs.Metrics.incr m_tasks;
      rev_path := t.rev_prefix;
      preempts := t.preempts;
      last := t.last;
      next_pick := t.last;
      cut_off := false
    in
    (* Another domain waits: hand the shared frontier the bottom half
       of the walk's stack, the tasks this walk would reach last, and
       keep the top half, at least the next task. *)
    let donate () =
      let n = List.length !local in
      if n >= 2 then begin
        let kept = List.filteri (fun i _ -> i < (n + 1) / 2) !local in
        let given = List.filteri (fun i _ -> i >= (n + 1) / 2) !local in
        local := kept;
        push (List.rev given)
      end
    in
    (* A decision past the task's own: claim the state, then go down the
       lowest branch and save one task per sibling. *)
    let decide (pv : probe_view) =
      let fresh =
        (not dedup)
        ||
        match pv.fingerprint () with
        | None -> true
        | Some (f1, f2) ->
          let benc =
            match preemption_bound with
            | None -> -1
            | Some _ -> (!preempts * 64) + !last + 1
          in
          if claim (f1, f2, pv.step, benc) then true
          else begin
            Atomic.incr n_dedup;
            Obs.Metrics.incr m_dedup;
            false
          end
      in
      if not fresh then begin
        cut_off := true;
        `Stop
      end
      else if pv.step >= max_steps then
        (* Truncated leaf: counted at the end, like the complete case —
           normally the op cap ends the run before the probe even fires
           here. *)
        `Stop
      else begin
        Atomic.incr n_nodes;
        let choices =
          match preemption_bound with
          | Some b when !preempts >= b && !last >= 0 && List.mem !last pv.live
            ->
            [ !last ]
          | _ -> pv.live
        in
        let preempts_of_child pid =
          if !last >= 0 && pid <> !last && List.mem !last pv.live then
            !preempts + 1
          else !preempts
        in
        match choices with
        | [] ->
          (* Unreachable: the probe only fires while some process is
             live, and a preemption bound only narrows to a live pid. *)
          cut_off := true;
          `Stop
        | chosen :: rest ->
          (match rest with
          | [] -> ()
          | _ :: _ ->
            let from = Some (pv.save ()) in
            List.iter
              (fun c ->
                children :=
                  {
                    from;
                    rev_prefix = c :: !rev_path;
                    preempts = preempts_of_child c;
                    last = c;
                    origin = d;
                  }
                  :: !children)
              rest);
          preempts := preempts_of_child chosen;
          last := chosen;
          rev_path := chosen :: !rev_path;
          next_pick := chosen;
          `Continue
      end
    in
    (* The end of a task: judge its leaf, then resume the walk's next
       task, unless the engine stopped. *)
    let leaf (lv : leaf_view) =
      if not (!aborted || !cut_off) then begin
        Obs.Metrics.observe h_preempt (preemptions_of Fun.id !rev_path);
        (* Leaf states are counted here, not in the probe: the probe only
           fires while some process is live, and a truncated run is ended
           by the op cap before the probe reaches the depth cut. *)
        Atomic.incr n_nodes;
        let out = lv.outcome () in
        if out.live = [] then Atomic.incr n_complete else Atomic.incr n_trunc;
        let errors = out.judge () in
        if errors <> [] then report_raw !rev_path errors
      end;
      local := List.rev_append !children !local;
      children := [];
      if not (Atomic.get stop) then begin
        if Atomic.get waiting > 0 then donate ();
        match !local with
        | ({ from = Some node; _ } as t) :: rest ->
          local := rest;
          start t;
          lv.restore node
        | { from = None; _ } :: _ | [] -> ()
      end
    in
    let probe =
      {
        decide =
          (fun pv ->
            if Atomic.get stop then begin
              aborted := true;
              `Stop
            end
            else
              match !from with
              | None -> decide pv
              | Some node ->
                (* The walk's first decision: go to the task's node,
                   whose state was claimed when the task was saved, and
                   take the task's branch there. *)
                from := None;
                pv.restore node;
                `Continue);
        leaf;
      }
    in
    start t;
    ignore
      (w.exec ~probe:(Some probe) ~certify:false
         ~sched:(Schedule.fn (fun ~step:_ ~live:_ -> picks.(!next_pick)))
         ~max_ops:max_steps ~check:false
        : outcome);
    task_done ()
  in
  let worker d =
    let rec go () =
      match pop d with
      | None -> ()
      | Some t ->
        walk d t;
        go ()
    in
    go ()
  in
  push
    [
      {
        from = None;
        rev_prefix = [];
        preempts = 0;
        last = -1;
        origin = 0;
      };
    ];
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  List.iter Domain.join spawned;
  (* Deterministic merge: shortest raw script first, ties broken
     lexicographically, then shrink-and-dedup up to [max_violations]. *)
  let ordered =
    List.sort_uniq
      (fun (s1, _) (s2, _) ->
        match compare (List.length s1) (List.length s2) with
        | 0 -> compare s1 s2
        | c -> c)
      !raw
  in
  let violations =
    List.fold_left
      (fun acc (script, errors) ->
        if List.length acc >= max_violations then acc
        else record_violation w ~max_steps acc ~script ~errors)
      [] ordered
  in
  {
    complete = Atomic.get n_complete;
    truncated = Atomic.get n_trunc;
    prefixes = Atomic.get n_nodes;
    executions = Atomic.get n_exec;
    dedup_hits = Atomic.get n_dedup;
    pruned = 0;
    domains;
    violations = List.rev violations;
  }

(* ---------------------------------------------------------------- *)
(* Parallel randomized sweeps                                        *)
(* ---------------------------------------------------------------- *)

type sweep_report = {
  executions : int;
  domains : int;
  violations : violation list;
}

(* One of five adversary families, drawn deterministically from the
   per-execution seed. *)
let gen_sched ~n_procs ~max_steps ~seed =
  let g = Prng.make seed in
  let kind, g = Prng.int g 5 in
  let sub_seed, g = Prng.int g 0x3FFFFFFF in
  match kind with
  | 0 -> Schedule.random ~seed:sub_seed
  | 1 ->
    (* crash a random subset of processes after a few steps each *)
    let crashes, _ =
      List.fold_left
        (fun (acc, g) pid ->
          let b, g = Prng.bool g in
          if b then
            let steps, g = Prng.int g 8 in
            ((pid, 1 + steps) :: acc, g)
          else (acc, g))
        ([], g)
        (List.init n_procs Fun.id)
    in
    Schedule.with_crashes crashes (Schedule.random ~seed:sub_seed)
  | 2 ->
    (* an x-obstruction suffix: only a random non-empty subset runs *)
    let procs, _ =
      List.fold_left
        (fun (acc, g) pid ->
          let b, g = Prng.bool g in
          if b then (pid :: acc, g) else (acc, g))
        ([], g)
        (List.init n_procs Fun.id)
    in
    let procs = if procs = [] then [ 0 ] else procs in
    Schedule.among ~procs ~seed:sub_seed
  | 3 ->
    (* starvation: a random victim is hidden from the scheduler for an
       opening stretch, then everyone runs free — the adversary that a
       non-blocking object must shrug off *)
    let victim, g = Prng.int g n_procs in
    let len, _ = Prng.int g (max 1 (max_steps / 4)) in
    let procs =
      List.filter (fun p -> p <> victim) (List.init n_procs Fun.id)
    in
    let procs = if procs = [] then [ victim ] else procs in
    Schedule.phased ~prefix_len:(4 + len)
      ~prefix:(Schedule.among ~procs ~seed:sub_seed)
      ~suffix:(Schedule.random ~seed:(sub_seed lxor 0x5555))
  | _ -> Schedule.drawn g ~n:n_procs ~len:(2 * max_steps)

let sweep ?domains ?(max_steps = 200) ?(max_violations = 1) ~budget ~seed w =
  check_max_violations "sweep" max_violations;
  let domains = domain_count domains in
  (* No point spawning domains that would get an empty seed range. *)
  let domains = min domains (max 1 budget) in
  let found = Atomic.make 0 in
  let worker lo hi =
    let count = ref 0 in
    let raw = ref [] in
    let k = ref lo in
    while !k < hi && Atomic.get found < max_violations do
      let sched = gen_sched ~n_procs:w.n_procs ~max_steps ~seed:(seed + !k) in
      Obs.Metrics.incr m_execs;
      let out =
        w.exec ~probe:None ~certify:false ~sched ~max_ops:max_steps
          ~check:true
      in
      Obs.Metrics.observe h_preempt
        (preemptions_of (fun (e : Aug.Prog.trace_entry) -> e.pid) out.trace);
      incr count;
      if out.errors <> [] then begin
        Atomic.incr found;
        raw := out :: !raw
      end;
      incr k
    done;
    (!count, List.rev !raw)
  in
  let per = max 1 (budget / domains) in
  let ranges =
    List.init domains (fun d ->
        let lo = d * per in
        let hi = if d = domains - 1 then budget else min budget ((d + 1) * per) in
        (lo, max lo hi))
  in
  let spawned =
    match ranges with
    | [] -> []
    | _ :: rest ->
      List.map
        (fun (lo, hi) -> Domain.spawn (fun () -> worker lo hi))
        rest
  in
  let first = match ranges with [] -> (0, []) | (lo, hi) :: _ -> worker lo hi in
  let all = first :: List.map Domain.join spawned in
  let executions = List.fold_left (fun acc (c, _) -> acc + c) 0 all in
  let raw = List.concat_map snd all in
  let violations =
    List.fold_left
      (fun acc (out : outcome) ->
        if List.length acc >= max_violations then acc
        else
          record_violation w ~max_steps acc ~script:(script_of out)
            ~errors:out.errors)
      [] raw
  in
  { executions; domains; violations = List.rev violations }

(* ---------------------------------------------------------------- *)
(* The M-operation history (for the Wing-Gong oracle)                *)
(* ---------------------------------------------------------------- *)

type snap_op = [ `U of (int * Value.t) list | `S ]

let snapshot_spec m : (Value.t array, snap_op) Linearize.spec =
  {
    init = Array.make m Value.Bot;
    apply =
      (fun st op ->
        match op with
        | `U updates ->
          let st' = Array.copy st in
          List.iter (fun (j, v) -> st'.(j) <- v) updates;
          (st', Value.Bot)
        | `S -> (st, Value.List (Array.to_list st)));
  }

let mop_history aug ix =
  let entries = ref [] in
  Aug.iter_log aug
    (function
      | Aug.Scan_op { proc; start_idx; end_idx; view; _ } ->
        entries :=
          Linearize.entry ~proc ~op:`S ~inv:start_idx ~ret:end_idx
            ~res:(Value.List (Array.to_list view))
            ()
          :: !entries
      | Aug.Bu_op { proc; updates; start_idx; end_idx; result; _ } -> (
        match result with
        | Aug.Atomic _ ->
          (* Lemma 11: the whole block linearizes at one point. *)
          entries :=
            Linearize.entry ~proc ~op:(`U updates) ~inv:start_idx ~ret:end_idx
              ()
            :: !entries
        | Aug.Yield ->
          (* Lemma 12: each Update linearizes somewhere inside the
             interval, not necessarily together. *)
          List.iter
            (fun (j, v) ->
              entries :=
                Linearize.entry ~proc ~op:(`U [ (j, v) ]) ~inv:start_idx
                  ~ret:end_idx ()
                :: !entries)
            updates));
  (* Incomplete Block-Updates: triples were appended but the M-operation
     never returned — pending Updates, which may take effect or not,
     invoked at the writer's Line-2 scan. *)
  Aug_spec.iter_pending ix (fun u ->
      entries :=
        Linearize.entry ~proc:u.u_writer ~op:(`U [ (u.u_comp, u.u_value) ])
          ~inv:u.u_inv ()
        :: !entries);
  (snapshot_spec (Aug.m aug), List.rev !entries)

(* ---------------------------------------------------------------- *)
(* Targets: one explorable system each                               *)
(* ---------------------------------------------------------------- *)

(* What the oracles judge of one execution: the target's own result
   ['r], and what every target has. *)
type 'r exec = {
  result : 'r;
  noun : string;
  aug : Aug.t;
  statuses : Rsim_runtime.Prog.status array;
  steps : int;
  complete : bool;
  index : Aug_spec.index;  (* the object's own, extended hop by hop *)
  spec_report : Aug_spec.report Lazy.t;
      (* [index]'s settled verdicts and the checks judged at the end *)
  linearizable : bool Lazy.t;
}

(* One explorable system, which [of_target] turns into a workload. An
   execution's state [t] starts (keeping what [fingerprint] reads only
   if [probed]), runs as {!Rsim_runtime.Prog.S.run} does, tells what it
   has [current]ly reached, and saves and restores itself. [view] is
   what every target's oracles read of a result: the augmented
   snapshot, whose trace index the run extended as it went
   ({!Aug.index}), the trace, the statuses and the step count. *)
module type TARGET = sig
  type t
  type saved
  type result

  val noun : string
  val start : max_ops:int -> probed:bool -> t
  val save : t -> saved
  val restore : t -> saved -> unit

  val run :
    ?probe:Rsim_runtime.Prog.probe ->
    ?at_end:(unit -> unit) ->
    sched:Schedule.t ->
    t ->
    unit

  val current : t -> result

  val view :
    t ->
    result ->
    Aug.t * Aug.Prog.trace_entry list * Rsim_runtime.Prog.status array * int

  val fingerprint : t -> live:int list -> (int * int) option
end

let m_lin_vacuous = Obs.Metrics.counter "explore.oracle.linearizable.vacuous"

(* The index's own order when it linearizes the history, checked in one
   pass; otherwise Wing-Gong's search on the M-operation history. A
   history too long for the search passes, counted as vacuous. *)
let lin_verdict aug ix =
  Aug_spec.lin_witness ix
  ||
  let spec, entries = mop_history aug ix in
  if List.compare_length_with entries Sys.int_size > 0 then begin
    Obs.Metrics.incr m_lin_vacuous;
    true
  end
  else Linearize.check spec entries

(* The workload of a target. A node is the target's saved state keyed
   by the workload's identity, so a node handed to another workload is
   refused rather than misread. *)
let of_target (type r) (module T : TARGET with type result = r) ~name
    ~n_procs ~params ~inject ~faults ~(oracles : r exec Oracle.t list) =
  let ocs = oracle_counters oracles in
  let id = Type.Id.make () in
  let exec ~probe ~certify:_ ~sched ~max_ops ~check =
    let st = T.start ~max_ops ~probed:(Option.is_some probe) in
    (* What the execution reached, judged now if [check]. It reads the
       target's state, so a probed execution's outcome must be judged
       before the run moves on. *)
    let outcome_of r =
      let aug, trace, statuses, steps = T.view st r in
      let index = Aug.index aug in
      let live = ref [] in
      for pid = Array.length statuses - 1 downto 0 do
        if statuses.(pid) = Rsim_runtime.Prog.Pending then live := pid :: !live
      done;
      let live = !live in
      let complete = live = [] in
      let ex =
        {
          result = r;
          noun = T.noun;
          aug;
          statuses;
          steps;
          complete;
          index;
          spec_report = lazy (Aug_spec.report index);
          linearizable = lazy (lin_verdict aug index);
        }
      in
      let judge_now () = judge ocs ~complete ex in
      {
        trace;
        live;
        steps;
        errors = (if check then judge_now () else []);
        judge = judge_now;
      }
    in
    (* The outcome at the run's latest end, built at most once: for the
       engine's [leaf], or as [exec]'s result at the final end. *)
    let last = ref (lazy (outcome_of (T.current st))) in
    (match probe with
    | None -> T.run ~sched st
    | Some p ->
      let save () = Node (id, T.save st) in
      let restore (Node (id', s)) =
        match Type.Id.provably_equal id id' with
        | Some Type.Equal -> T.restore st s
        | None -> invalid_arg (name ^ ": a node saved by another workload")
      in
      (* One [fingerprint] closure for the whole execution: it reads the
         live set of the probe call it is handed to. *)
      let probed = ref [] in
      let fingerprint () = T.fingerprint st ~live:!probed in
      let leaf = { outcome = (fun () -> Lazy.force !last); restore } in
      T.run
        ~probe:(fun ~step ~live ->
          probed := live;
          p.decide { step; live; fingerprint; save; restore })
        ~at_end:(fun () ->
          last := lazy (outcome_of (T.current st));
          p.leaf leaf)
        ~sched st);
    Lazy.force !last
  in
  {
    name;
    n_procs;
    params;
    inject;
    faults = (if faults = [] then None else Some (Faults.to_string faults));
    exec;
  }

(* ---------------------------------------------------------------- *)
(* Oracles every target shares                                       *)
(* ---------------------------------------------------------------- *)

(* No process raised: a [Failed] status is a bug, never a modeled fault. *)
let no_failure : _ exec Oracle.t =
  {
    Oracle.name = "no-failure";
    on_truncated = true;
    check =
      (fun { noun; statuses; _ } ->
        let errs = ref [] in
        Array.iteri
          (fun pid st ->
            match st with
            | Rsim_runtime.Prog.Failed e ->
              errs :=
                Printf.sprintf "%s %d raised %s" noun pid (Printexc.to_string e)
                :: !errs
            | Rsim_runtime.Prog.Done | Rsim_runtime.Prog.Pending
            | Rsim_runtime.Prog.Crashed -> ())
          statuses;
        List.rev !errs);
  }

let aug_spec : _ exec Oracle.t =
  {
    Oracle.name = "aug-spec";
    on_truncated = true;
    check =
      (fun { spec_report = (lazy r); _ } ->
        if r.Aug_spec.ok then [] else r.Aug_spec.errors);
  }

(* The non-blocking guarantee (Theorem 20's machinery): while any
   process is still pending, some M-operation must keep completing.
   A truncated run whose final [progress_window] H-operations contain
   no M-operation completion is a progress violation — the detector for
   blocking bugs (e.g. [Spin_on_yield]) that every safety oracle is
   blind to. *)
let progress_window = 48

let progress : _ exec Oracle.t =
  {
    Oracle.name = "progress";
    on_truncated = true;
    check =
      (fun { noun; aug; steps; complete; _ } ->
        if complete || steps < progress_window then []
        else
          let horizon = steps - progress_window in
          let recent = ref false in
          Aug.iter_log aug (function
            | Aug.Scan_op { end_idx; _ } | Aug.Bu_op { end_idx; _ } ->
              if end_idx >= horizon then recent := true);
          if !recent then []
          else
            [
              Printf.sprintf
                "no M-operation completed in the final %d of %d steps while \
                 a %s was still pending (blocking)"
                progress_window steps noun;
            ]);
  }

(* ---------------------------------------------------------------- *)
(* Augmented-snapshot workloads                                      *)
(* ---------------------------------------------------------------- *)

(* Two independent integer mixers; a fingerprint is a pair of digests,
   one per mixer, so a chance collision needs to happen in both. *)
let mix1 h x = ((h lxor x) * 0x100000001B3) land max_int
let mix2 h x = ((h lxor (x * 0x9E3779B1)) * 0x27D4EB2F) land max_int

module Aug_target = struct
  type nonrec exec = Aug.Prog.result exec

  let no_failure = no_failure
  let spec = aug_spec
  let progress = progress

  let theorem20 : exec Oracle.t =
    {
      Oracle.name = "theorem20";
      on_truncated = true;
      check =
        (fun { aug; _ } ->
          let errs = ref [] in
          Aug.iter_log aug (function
            | Aug.Bu_op { proc = 0; result = Aug.Yield; ts; _ } ->
              errs :=
                Printf.sprintf "process 0 yielded (ts %s)" (Vts.show ts)
                :: !errs
            | Aug.Bu_op _ | Aug.Scan_op _ -> ());
          List.rev !errs);
    }

  let linearizable : exec Oracle.t =
    {
      Oracle.name = "linearizable";
      on_truncated = true;
      check =
        (fun { linearizable = (lazy ok); _ } ->
          if ok then []
          else [ "no linearization of the M-operation history (Wing-Gong)" ]);
    }

  (* Crash-robustness: when the run contains injected crashes, the
     surviving history must still satisfy the augmented-snapshot spec and
     stay linearizable with the crashed processes' updates pending. *)
  let crash_robust : exec Oracle.t =
    {
      Oracle.name = "crash-robust";
      on_truncated = true;
      check =
        (fun { statuses; spec_report; linearizable; _ } ->
          if not (Array.mem Rsim_runtime.Prog.Crashed statuses) then []
          else
            let r = Lazy.force spec_report in
            let spec_errs = if r.Aug_spec.ok then [] else r.Aug_spec.errors in
            let lin_errs =
              if Lazy.force linearizable then []
              else
                [
                  "crashed history not linearizable with the crashed \
                   processes' updates pending";
                ]
            in
            spec_errs @ lin_errs);
    }

  (* Race oracle (DESIGN §10.2). The Line-9 yield discipline has an
     index-order shadow: a Block-Update by [q] that returns [Atomic] must
     have observed, at its Line-2 scan ([start_idx]), every M-conflicting
     triple append by a lower-identifier process linearized before its
     own Line-4 X append ([x_idx]) — the single point the whole block
     linearizes at (Lemma 11). Appends landing after [x_idx] serialize
     after the block and are harmless even when they precede the
     trailing Line-8/Line-12 scans. The clean object satisfies this
     structurally (a lower-id append before the yield-check scan forces
     a yield, and [x_idx] precedes that scan); [Skip_yield_check] and
     [Yield_on_higher] break exactly this invariant.

     Why index order decides "observed". The runtime applies one
     H-operation at a time, H is single-writer and every H.scan reads
     every component, so the scan at [start_idx] returns exactly the
     appends with a smaller trace index. In vector-clock terms (an
     append ticks its writer's clock and publishes it on the writer's
     component; a scan joins every published clock; fault-plane events
     only tick): if [idx < start_idx], the scan joins [p]'s last
     published clock, which dominates [p]'s stamp at [idx] because a
     pid's clock only grows, so stamp(idx) <= stamp(start_idx); if
     [idx > start_idx], stamp(idx) has a [p] entry larger than any [p]
     entry published by [start_idx], so for [p <> q] the test fails.
     Hence "stamp(idx) <= stamp(start_idx)" is "idx < start_idx", and the
     oracle fires iff a triple append by some [p < q] touching one of
     [q]'s components lands strictly inside [(start_idx, x_idx)]. Per
     atomic Block-Update, only the index's appends inside that interval
     are walked. Errors come in log order, then trace order. *)
  let race_errors aug ix =
    let errs = ref [] in
    Aug.iter_log aug
      (function
        | Aug.Scan_op _ | Aug.Bu_op { result = Aug.Yield; _ } -> ()
        | Aug.Bu_op
            { proc = q; updates; start_idx; x_idx; result = Aug.Atomic _; _ }
          ->
          (* one error per append: the Updates of an append are consecutive *)
          let reported = ref (-1) in
          Aug_spec.iter_appended ix ~lo:start_idx ~hi:x_idx (fun u ->
              let p = u.u_writer and idx = u.u_x_idx in
              if
                p < q && idx <> !reported && List.mem_assoc u.u_comp updates
              then begin
                reported := idx;
                errs :=
                  Printf.sprintf
                    "race: atomic Block-Update by %d over [%d,%d] did not \
                     observe conflicting append by %d at %d (after its Line-2 \
                     scan at %d)"
                    q start_idx x_idx p idx start_idx
                  :: !errs
              end));
    List.rev !errs

  let race : exec Oracle.t =
    {
      Oracle.name = "race";
      on_truncated = true;
      check = (fun { aug; index; _ } -> race_errors aug index);
    }

  (* [Aug.apply] with rolling state digests for the engine's
     fingerprint, kept in [d] (see {!digests}): one pair of accumulators
     per process folding its (operation, result) history — programs are
     deterministic, so this pins down the process's whole local state —
     and one pair per single-writer H component folding, for each
     append, the issuer's digest at issue time (append contents are a
     function of the issuer's history, so the payload itself, which
     contains recursive snapshots, never needs hashing). A scan's result
     hash is the combined H-component digest at scan time. The digests
     are cheap to keep on every operation; the fingerprint, which folds
     them all with the live set, is computed only when asked for. *)
  let fingerprinted aug ~f d =
    let fold_comps mixf base from =
      let h = ref base in
      for i = from to from + f - 1 do
        h := mixf !h d.(i)
      done;
      !h
    in
    fun ~pid op ->
      let res = Aug.apply aug ~pid op in
      let tag =
        match op with
        | Aug.Ops.Hscan -> 1
        | Aug.Ops.Happend_triples _ -> 2
        | Aug.Ops.Happend_lrecords _ -> 3
      in
      (match op with
      | Aug.Ops.Hscan -> ()
      | Aug.Ops.Happend_triples _ | Aug.Ops.Happend_lrecords _ ->
        d.((2 * f) + pid) <- mix1 (mix1 d.((2 * f) + pid) d.(pid)) tag;
        d.((3 * f) + pid) <- mix2 (mix2 d.((3 * f) + pid) d.(f + pid)) tag);
      let r1, r2 =
        match res with
        | Aug.Ops.Ack -> (17, 17)
        | Aug.Ops.Snap _ -> (fold_comps mix1 5 (2 * f), fold_comps mix2 5 (3 * f))
      in
      d.(pid) <- mix1 (mix1 d.(pid) tag) r1;
      d.(f + pid) <- mix2 (mix2 d.(f + pid) tag) r2;
      res

  (* The digests of [f] processes, in one array so that a saved state
     copies it at once: the process digests of the two mixers, then the
     component digests of the two mixers, [f] each. *)
  let digests ~f =
    Array.init (4 * f) (fun i -> if (i / f) mod 2 = 0 then 0x1505 else 0x9747)

  let default_oracles = [ no_failure; spec; theorem20; progress ]
  let builtin_names = [ "bu-conflict"; "bu-scan"; "bu-then-scan"; "mixed" ]

  (* A fresh augmented snapshot per execution, running [programs cfg]
     (one per pid). *)
  let workload ~oracles ~inject ~faults ~name ~f ~m programs =
    (* Programs are persistent: every execution starts the same ones. *)
    let programs = programs (Aug.config (Aug.create ?inject ~f ~m ())) in
    (* The hook keeps no state, so every execution on every domain
       shares it. *)
    let control =
      if faults = [] then None
      else Some (Faults.control ~adapter:Aug.fault_adapter faults)
    in
    let module T = struct
      type t = {
        aug : Aug.t;
        run : Aug.Prog.run;
        digests : int array;
      }

      (* The run, the object and the digests. *)
      type saved = Aug.Prog.saved * Aug.saved * int array
      type result = Aug.Prog.result

      let noun = "process"

      let start ~max_ops ~probed =
        let aug = Aug.create ?inject ~f ~m () in
        (* Only a probed run is asked for fingerprints, so only it
           keeps the digests. *)
        let digests = if probed then digests ~f else [||] in
        let apply =
          if probed then fingerprinted aug ~f digests else Aug.apply aug
        in
        {
          aug;
          digests;
          run =
            Aug.Prog.start ~max_ops ?control ~obs_label:Aug.op_name ~apply
              ~emit:(Aug.record aug) programs;
        }

      let save t =
        ( Aug.Prog.save t.run,
          Aug.save t.aug,
          Array.copy t.digests )

      let restore t (run, aug, digests) =
        Aug.Prog.restore t.run run;
        Aug.restore t.aug aug;
        Array.blit digests 0 t.digests 0 (Array.length digests)

      let run ?probe ?at_end ~sched t =
        Aug.Prog.run ?probe ?at_end ~sched t.run

      let current t = Aug.Prog.current t.run

      let view t (r : result) = (t.aug, r.trace, r.statuses, r.total_ops)

      let fingerprint t ~live =
        let fold mixf a b =
          let h = ref 0 in
          for i = a to a + f - 1 do
            h := mixf !h t.digests.(i)
          done;
          for i = b to b + f - 1 do
            h := mixf !h t.digests.(i)
          done;
          List.iter (fun p -> h := mixf !h (p + 1)) live;
          !h
        in
        Some (fold mix1 0 (2 * f), fold mix2 f (3 * f))
    end in
    of_target
      (module T)
      ~oracles ~name ~n_procs:f
      ~params:[ ("f", f); ("m", m) ]
      ~inject:(Option.map fault_to_string inject)
      ~faults

  let builtin ?inject ?(faults = []) ?(oracles = default_oracles) ~name ~f ~m
      () =
    let mk programs =
      Some (workload ~oracles ~inject ~faults ~name ~f ~m programs)
    in
    let open Aug.Prog in
    let each prog cfg = List.init f (fun me -> prog cfg ~me) in
    match name with
    | "bu-conflict" ->
      mk
        (each (fun cfg ~me ->
             Aug.block_update_prog cfg ~me [ (0, Value.Int (me + 1)) ] (fun _ ->
                 return ())))
    | "bu-scan" ->
      mk
        (each (fun cfg ~me ->
             if me = 0 then
               Aug.block_update_prog cfg ~me:0
                 (if m >= 2 then [ (0, Value.Int 1); (m - 1, Value.Int 2) ]
                  else [ (0, Value.Int 1) ])
                 (fun _ -> return ())
             else Aug.scan_prog cfg ~me (fun _ -> return ())))
    | "bu-then-scan" ->
      mk
        (each (fun cfg ~me ->
             Aug.block_update_prog cfg ~me [ (me mod m, Value.Int (me + 1)) ]
               (fun _ -> Aug.scan_prog cfg ~me (fun _ -> return ()))))
    | "mixed" ->
      (* Deterministic pseudo-random programs keyed on (f, m, pid): the
         same workload name + params always produces the same programs,
         so scripts persisted in artifacts stay replayable. *)
      mk
        (each (fun cfg ~me ->
             Aug.random_prog cfg ~me
               ~seed:(0x6d78 + (97 * me) + (13 * f) + m)
               ~ops:3 ~max_comps:2 ~values:50))
    | _ -> None
end

(* ---------------------------------------------------------------- *)
(* Full-simulation workloads                                         *)
(* ---------------------------------------------------------------- *)

module Harness_target = struct
  type nonrec exec = (Harness.spec * Harness.result) exec

  let analysis : exec Oracle.t =
    {
      Oracle.name = "lemma26-replay";
      on_truncated = false;
      check =
        (fun { result = hspec, result; _ } ->
          let r = Analysis.check hspec result in
          if r.Analysis.ok then [] else r.Analysis.errors);
    }

  (* Simulators' outputs solve consensus; with [survivors_only],
     crashed and quarantined simulators are excused. *)
  let validated ~name ~survivors_only : exec Oracle.t =
    {
      Oracle.name;
      on_truncated = false;
      check =
        (fun { result = hspec, result; _ } ->
          match
            Harness.validate ~survivors_only hspec result ~task:Task.consensus
          with
          | Ok () -> []
          | Error e -> [ Harness.explain e ]);
    }

  let consensus = validated ~name:"consensus" ~survivors_only:false

  let consensus_survivors =
    validated ~name:"consensus-survivors" ~survivors_only:true

  let default_oracles = [ no_failure; aug_spec; analysis; consensus ]

  (* With faults on, strict all-done validation and the Lemma 26 replay
     no longer apply (a crashed simulator leaves its simulation
     unfinished, and the replay refuses a restart): switch to survivor
     validation plus the progress detector. *)
  let fault_oracles = [ no_failure; aug_spec; progress; consensus_survivors ]

  let racing_spec ~n ~m ~f ~d =
    {
      Harness.protocol = (fun pid input -> (Racing.protocol ~m ()) pid input);
      n;
      m;
      f;
      d;
      inputs = List.init f (fun p -> Value.Int (p + 1));
    }

  let racing ?oracles ?(faults = []) ?watchdog ~n ~m ~f ~d () =
    let oracles =
      match oracles with
      | Some os -> os
      | None -> if faults = [] then default_oracles else fault_oracles
    in
    let hspec = racing_spec ~n ~m ~f ~d in
    let module T = struct
      type t = Harness.sim
      type saved = Harness.saved
      type result = Harness.spec * Harness.result

      let noun = "simulator"

      let start ~max_ops ~probed:_ =
        Harness.start ~max_ops ~faults ?watchdog hspec

      let save = Harness.save
      let restore = Harness.restore

      let run = Harness.finish
      let current sim = (hspec, Harness.current sim)

      let view _ ((_, r) : result) =
        (r.Harness.aug, r.trace, r.statuses, r.total_ops)

      (* Simulator local state is too rich to digest soundly at this
         boundary, so the engine shares prefixes but never dedups. *)
      let fingerprint _ ~live:_ = None
    end in
    of_target
      (module T)
      ~oracles ~name:"racing" ~n_procs:f
      ~params:[ ("n", n); ("m", m); ("f", f); ("d", d) ]
      ~inject:None ~faults
end

(* ---------------------------------------------------------------- *)
(* Workloads from their description                                  *)
(* ---------------------------------------------------------------- *)

let build_workload ~name ~params ?inject ~faults () =
  let ( let* ) = Result.bind in
  let param k =
    Option.to_result
      ~none:(Printf.sprintf "workload %s: missing parameter %s" name k)
      (List.assoc_opt k params)
  in
  let unknown =
    Error
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " (Aug_target.builtin_names @ [ "racing" ])))
  in
  (* A fault aimed at a pid the workload does not have would never fire,
     and the run would pass unfaulted. *)
  let pids_in ~f =
    match
      List.find_opt (fun (s : Faults.spec) -> s.pid < 0 || s.pid >= f) faults
    with
    | None -> Ok ()
    | Some s ->
      Error
        (Printf.sprintf "fault spec %s: pid %d is not one of the %d processes \
                         (0 to %d)"
           (Faults.to_string [ s ]) s.pid f (f - 1))
  in
  if name = "racing" then
    let* n = param "n" in
    let* m = param "m" in
    let* f = param "f" in
    let* d = param "d" in
    if inject <> None then
      Error "seeded bugs apply to augmented-snapshot workloads only"
    else
      let* () = Harness.check_shape ~n ~m ~f ~d in
      let* () = pids_in ~f in
      Ok (Harness_target.racing ~faults ~n ~m ~f ~d ())
  else if not (List.mem name Aug_target.builtin_names) then unknown
  else
    let* f = param "f" in
    let* m = param "m" in
    let* inject =
      match inject with
      | None -> Ok None
      | Some s -> (
        match fault_of_string s with
        | Some bug -> Ok (Some bug)
        | None -> Error (Printf.sprintf "unknown seeded bug %S" s))
    in
    if f < 1 then Error "f must be >= 1"
    else if m < 1 then Error "m must be >= 1"
    else
      let* () = pids_in ~f in
      Option.fold ~none:unknown ~some:Result.ok
        (Aug_target.builtin ?inject ~faults ~name ~f ~m ())
