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
module Hb = Rsim_runtime.Hb

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

(* Context switches away from a pid that appears again later — the
   preemption depth of an executed schedule. *)
let preemptions_of script =
  let rec go last acc = function
    | [] -> acc
    | pid :: rest ->
      if last >= 0 && pid <> last then go pid (acc + 1) rest
      else go pid acc rest
  in
  go (-1) 0 script

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

(* What the exploration engine sees at every scheduling decision of a
   probed execution (see {!Rsim_runtime.Fiber.run}'s [probe]). *)
type probe_view = {
  step : int;
  live : int list;
  fingerprint : (int * int) option;
}

type probe = probe_view -> [ `Continue | `Stop ]

type outcome = {
  script : int list;
  live : int list;
  steps : int;
  errors : string list;
  judge : unit -> string list;
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

(* The pre-parallel engine, kept verbatim as the measurement baseline
   for [bench --explore-only]: a single-domain DFS that re-executes
   every schedule prefix from scratch (effect continuations are
   one-shot) — O(L²) executions per leaf — and re-executes each leaf a
   second time to judge it. Prefix accumulation is reverse-consed (one
   [List.rev] per execution) instead of the former O(n) [@ [pid]]. *)
let exhaustive_naive ?(max_steps = 64) ?preemption_bound ?(max_violations = 1)
    w =
  let complete = ref 0 in
  let truncated = ref 0 in
  let prefixes = ref 0 in
  let executions = ref 0 in
  let violations = ref [] in
  let stop = ref false in
  let leaf ~cut script =
    if cut then incr truncated else incr complete;
    Obs.Metrics.observe h_preempt (preemptions_of script);
    incr executions;
    let out = replay w ~max_steps ~script in
    if out.errors <> [] then begin
      violations :=
        record_violation w ~max_steps !violations ~script:out.script
          ~errors:out.errors;
      if List.length !violations >= max_violations then stop := true
    end
  in
  (* DFS over schedule prefixes. [last] is the pid of the previous step,
     [preempts] the context switches away from a still-live fiber so
     far. *)
  let rec go rev_script nsteps preempts last =
    if not !stop then begin
      incr prefixes;
      incr executions;
      Obs.Metrics.incr m_execs;
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
    complete = !complete;
    truncated = !truncated;
    prefixes = !prefixes;
    executions = !executions;
    dedup_hits = 0;
    pruned = 0;
    domains = 1;
    violations = List.rev !violations;
  }

(* A frontier entry: a schedule prefix (reverse-consed decisions) to
   re-execute and expand. [origin] is the pushing domain, for steal
   accounting. *)
type frontier_task = {
  rev_prefix : int list;
  depth : int;
  preempts : int;
  last : int;
  origin : int;
}

(* The parallel prefix-sharing engine. Each frontier task executes its
   prefix exactly once; from the prefix's end onward the execution
   continues greedily down the lowest-pid branch while the probe emits
   one frontier task per sibling branch — so every tree edge is executed
   exactly once (the old engine re-executed the whole prefix for every
   node below it) and the leaf is judged in the same execution via the
   outcome's lazy [judge] (the old engine re-executed every leaf to
   judge it).

   Determinism: state claims are atomic, and equal (fingerprint, depth,
   bound-state) keys have equal futures, so absent an early stop all
   counts are reproducible regardless of the number of domains or of
   which racing task wins a claim. Violation scripts are not: the winner
   of a claim race becomes the prefix that represents the merged state,
   and an early stop keeps whichever raw violations arrived first. *)
let exhaustive ?(max_steps = 64) ?preemption_bound ?(max_violations = 1)
    ?domains ?(dedup = true) w =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (min 4 (Domain.recommended_domain_count () - 1))
  in
  (* Injected faults give reached states clock-dependent components
     (stall windows, restart delays) the fingerprint cannot see, so
     dedup is unsound there and switches itself off. *)
  let dedup = dedup && w.faults = None in
  (* Sharded claim table: a state key is claimed by exactly one task;
     everyone else is pruned. *)
  let shards =
    (Array.init 64 (fun _ -> (Mutex.create (), Hashtbl.create 251))
    [@rsim.shared "each shard's table is only touched under its mutex"])
  in
  let claim key =
    let mu, tbl = shards.(Hashtbl.hash key land 63) in
    Mutex.lock mu;
    let fresh = not (Hashtbl.mem tbl key) in
    if fresh then Hashtbl.add tbl key ();
    Mutex.unlock mu;
    fresh
  in
  (* Shared LIFO frontier: a mutex-and-condition chunked queue. [pop]
     blocks while tasks are in flight (they may push children); the last
     domain to drain it broadcasts termination. *)
  let fmu = Mutex.create () in
  let fcv = Condition.create () in
  let stack = (ref [] [@rsim.shared "guarded by fmu"]) in
  let fsize = (ref 0 [@rsim.shared "guarded by fmu"]) in
  let in_flight = (ref 0 [@rsim.shared "guarded by fmu"]) in
  let finished = (ref false [@rsim.shared "guarded by fmu"]) in
  let stop = Atomic.make false in
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
            Condition.wait fcv fmu;
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
  let report_raw script errors =
    Mutex.lock vmu;
    raw := (script, errors) :: !raw;
    incr nraw;
    let enough = !nraw >= max_violations in
    Mutex.unlock vmu;
    if enough then halt ()
  in
  let process d (t : frontier_task) =
    Atomic.incr n_exec;
    Obs.Metrics.incr m_execs;
    Obs.Metrics.incr m_tasks;
    let prefix = Array.of_list (List.rev t.rev_prefix) in
    let plen = Array.length prefix in
    let rev_path = ref t.rev_prefix in
    let preempts = ref t.preempts in
    let last = ref t.last in
    let next_pick = ref (-1) in
    let children = ref [] in
    let aborted = ref false in
    let cut_off = ref false in
    let probe (pv : probe_view) =
      if Atomic.get stop then begin
        aborted := true;
        `Stop
      end
      else if pv.step < plen then begin
        (* Replaying the task's own prefix: the states along it were
           claimed when their siblings were emitted, so just dictate the
           recorded decision. *)
        next_pick := prefix.(pv.step);
        `Continue
      end
      else begin
        let fresh =
          (not dedup)
          ||
          match pv.fingerprint with
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
          (* Truncated leaf: counted post-run, like the complete case —
             normally the fiber op cap ends the run before the probe
             even fires here. *)
          `Stop
        else begin
          Atomic.incr n_nodes;
          let choices =
            match preemption_bound with
            | Some b
              when !preempts >= b && !last >= 0 && List.mem !last pv.live ->
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
            (* Unreachable: the probe only fires while some fiber is
               live, and a preemption bound only narrows to a live pid. *)
            cut_off := true;
            `Stop
          | chosen :: rest ->
            List.iter
              (fun c ->
                children :=
                  {
                    rev_prefix = c :: !rev_path;
                    depth = pv.step + 1;
                    preempts = preempts_of_child c;
                    last = c;
                    origin = d;
                  }
                  :: !children)
              rest;
            preempts := preempts_of_child chosen;
            last := chosen;
            rev_path := chosen :: !rev_path;
            next_pick := chosen;
            `Continue
        end
      end
    in
    let out =
      w.exec ~probe:(Some probe) ~certify:false
        ~sched:(Schedule.fn (fun ~step:_ ~live:_ -> Some !next_pick))
        ~max_ops:max_steps ~check:false
    in
    if not (!aborted || !cut_off) then begin
      let script = List.rev !rev_path in
      Obs.Metrics.observe h_preempt (preemptions_of script);
      (* Leaf states are counted here, not in the probe: the probe only
         fires while some fiber is live, and a truncated run is ended by
         the fiber op cap before the probe reaches the depth cut. *)
      Atomic.incr n_nodes;
      if out.live = [] then Atomic.incr n_complete else Atomic.incr n_trunc;
      let errors = out.judge () in
      if errors <> [] then report_raw script errors
    end;
    push !children;
    task_done ()
  in
  let worker d =
    let rec go () =
      match pop d with
      | None -> ()
      | Some t ->
        process d t;
        go ()
    in
    go ()
  in
  push
    [
      {
        rev_prefix = [];
        depth = 0;
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
  | _ ->
    let rec gen g k acc =
      if k = 0 then List.rev acc
      else
        let pid, g = Prng.int g n_procs in
        gen g (k - 1) (pid :: acc)
    in
    Schedule.script (gen g (2 * max_steps) [])

let sweep ?domains ?(max_steps = 200) ?(max_violations = 1) ~budget ~seed w =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (min 4 (Domain.recommended_domain_count () - 1))
  in
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
      Obs.Metrics.observe h_preempt (preemptions_of out.script);
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
        else record_violation w ~max_steps acc ~script:out.script
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

let mop_history aug (trace : Aug.F.trace_entry list) =
  let completed = Hashtbl.create 16 in
  List.iter
    (function
      | Aug.Bu_op { proc; ts; _ } ->
        Hashtbl.replace completed (proc, Vts.to_array ts) ()
      | Aug.Scan_op _ -> ())
    (Aug.log aug);
  let entries = ref [] in
  List.iter
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
            updates))
    (Aug.log aug);
  (* Incomplete Block-Updates: triples were appended but the M-operation
     never returned — pending Updates, which may take effect or not. The
     pid's immediately preceding H.scan is its Line-2 scan, i.e. the
     invocation point. *)
  let last_scan = Hashtbl.create 8 in
  List.iter
    (fun (e : Aug.F.trace_entry) ->
      match e.op with
      | Aug.Ops.Hscan -> Hashtbl.replace last_scan e.pid e.idx
      | Aug.Ops.Happend_triples (({ Hrep.ts; _ } :: _) as triples)
        when not (Hashtbl.mem completed (e.pid, Vts.to_array ts)) ->
        let inv =
          Option.value ~default:e.idx (Hashtbl.find_opt last_scan e.pid)
        in
        List.iter
          (fun (tr : Hrep.triple) ->
            entries :=
              Linearize.entry ~proc:e.pid ~op:(`U [ (tr.comp, tr.value) ])
                ~inv ()
              :: !entries)
          triples
      | Aug.Ops.Happend_triples _ | Aug.Ops.Happend_lrecords _ -> ())
    trace;
  (snapshot_spec (Aug.m aug), List.rev !entries)

(* ---------------------------------------------------------------- *)
(* Augmented-snapshot workloads                                      *)
(* ---------------------------------------------------------------- *)

(* Two independent integer mixers; a fingerprint is a pair of digests,
   one per mixer, so a chance collision needs to happen in both. *)
let mix1 h x = ((h lxor x) * 0x100000001B3) land max_int
let mix2 h x = ((h lxor (x * 0x9E3779B1)) * 0x27D4EB2F) land max_int

module Aug_target = struct
  type exec = { aug : Aug.t; result : Aug.F.result; complete : bool }

  let no_failure : exec Oracle.t =
    {
      Oracle.name = "no-failure";
      on_truncated = true;
      check =
        (fun { result; _ } ->
          let errs = ref [] in
          Array.iteri
            (fun pid st ->
              match st with
              | Rsim_runtime.Fiber.Failed e when not (Faults.is_injected e) ->
                errs :=
                  Printf.sprintf "fiber %d raised %s" pid
                    (Printexc.to_string e)
                  :: !errs
              | Rsim_runtime.Fiber.Failed _ (* modeled fault: a crash *)
              | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Pending
              | Rsim_runtime.Fiber.Crashed -> ())
            result.Aug.F.statuses;
          List.rev !errs);
    }

  let spec : exec Oracle.t =
    {
      Oracle.name = "aug-spec";
      on_truncated = true;
      check =
        (fun { aug; result; _ } ->
          let r = Aug_spec.check aug result.Aug.F.trace in
          if r.Aug_spec.ok then [] else r.Aug_spec.errors);
    }

  let theorem20 : exec Oracle.t =
    {
      Oracle.name = "theorem20";
      on_truncated = true;
      check =
        (fun { aug; _ } ->
          List.filter_map
            (function
              | Aug.Bu_op { proc = 0; result = Aug.Yield; ts; _ } ->
                Some
                  (Printf.sprintf "process 0 yielded (ts %s)" (Vts.show ts))
              | Aug.Bu_op _ | Aug.Scan_op _ -> None)
            (Aug.log aug));
    }

  let linearizable : exec Oracle.t =
    {
      Oracle.name = "linearizable";
      on_truncated = true;
      check =
        (fun { aug; result; _ } ->
          let spec, entries = mop_history aug result.Aug.F.trace in
          if List.length entries > 16 then [] (* Wing-Gong is exponential *)
          else if Linearize.check spec entries then []
          else [ "no linearization of the M-operation history (Wing-Gong)" ]);
    }

  (* The non-blocking guarantee (Theorem 20's machinery): while any
     process is still pending, some M-operation must keep completing.
     A truncated run whose final [window] H-operations contain no
     M-operation completion is a progress violation — the detector for
     blocking bugs (e.g. [Spin_on_yield]) that every safety oracle is
     blind to. *)
  let progress ?(window = 48) () : exec Oracle.t =
    {
      Oracle.name = "progress";
      on_truncated = true;
      check =
        (fun { aug; result; complete } ->
          let steps = result.Aug.F.total_ops in
          if complete || steps < window then []
          else
            let horizon = steps - window in
            let recent =
              List.exists
                (fun mop ->
                  (match mop with
                  | Aug.Scan_op { end_idx; _ } | Aug.Bu_op { end_idx; _ } ->
                    end_idx)
                  >= horizon)
                (Aug.log aug)
            in
            if recent then []
            else
              [
                Printf.sprintf
                  "no M-operation completed in the final %d of %d steps while \
                   a process was still pending (blocking)"
                  window steps;
              ]);
    }

  (* Crash-robustness: when the run contains injected crashes, the
     surviving history must still satisfy the augmented-snapshot spec and
     stay linearizable with the crashed processes' updates pending. *)
  let crash_robust : exec Oracle.t =
    {
      Oracle.name = "crash-robust";
      on_truncated = true;
      check =
        (fun { aug; result; _ } ->
          let crashed =
            Array.exists
              (function
                | Rsim_runtime.Fiber.Crashed -> true
                | Rsim_runtime.Fiber.Failed e -> Faults.is_injected e
                | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Pending ->
                  false)
              result.Aug.F.statuses
          in
          if not crashed then []
          else
            let r = Aug_spec.check aug result.Aug.F.trace in
            let spec_errs = if r.Aug_spec.ok then [] else r.Aug_spec.errors in
            let lin_errs =
              let spec, entries = mop_history aug result.Aug.F.trace in
              if List.length entries > 16 then []
              else if Linearize.check spec entries then []
              else
                [
                  "crashed history not linearizable with the crashed \
                   processes' updates pending";
                ]
            in
            spec_errs @ lin_errs);
    }

  (* Happens-before race oracle (DESIGN §10). Replay the trace through
     an [Hb.Tracker]: H is single-writer, so location = component =
     pid; an append publishes the issuer's clock, an H.scan joins every
     published clock, and fault-plane events are incarnation
     boundaries. The Line-9 yield discipline then has a clock-checkable
     shadow: a Block-Update by [q] that returns [Atomic] must have
     observed, at its Line-2 scan, every M-conflicting triple-append by
     a lower-identifier process linearized before its own Line-4 X
     append — the single point the whole block linearizes at (Lemma
     11). Appends landing after [x_idx] serialize after the block and
     are harmless even when they precede the trailing Line-8/Line-12
     scans. The clean object satisfies this structurally (a lower-id
     append before the yield-check scan forces a yield, and [x_idx]
     precedes that scan); [Skip_yield_check] and [Yield_on_higher]
     break exactly this invariant. *)
  let race_errors aug (result : Aug.F.result) =
    let f = Array.length result.Aug.F.statuses in
    let t = Hb.Tracker.create ~procs:f ~locs:f in
    (* Fault events, grouped by the operation count at which they
       fired: ticked just before the trace entry with that index. *)
    let boundaries = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        let pid, at =
          match ev with
          | Rsim_runtime.Fiber.Ev_crash { pid; at; _ }
          | Rsim_runtime.Fiber.Ev_restart { pid; at; _ }
          | Rsim_runtime.Fiber.Ev_stall { pid; at; _ }
          | Rsim_runtime.Fiber.Ev_replace { pid; at }
          | Rsim_runtime.Fiber.Ev_raise { pid; at } -> (pid, at)
        in
        Hashtbl.add boundaries at pid)
      result.Aug.F.events;
    let stamps = Hashtbl.create 64 in
    List.iter
      (fun (e : Aug.F.trace_entry) ->
        List.iter
          (fun pid -> Hb.Tracker.boundary t ~pid)
          (Hashtbl.find_all boundaries e.idx);
        (match e.op with
        | Aug.Ops.Hscan -> Hb.Tracker.read_all t ~pid:e.pid
        | Aug.Ops.Happend_triples _ | Aug.Ops.Happend_lrecords _ ->
          Hb.Tracker.write t ~pid:e.pid ~loc:e.pid);
        Hashtbl.replace stamps e.idx (Hb.Tracker.stamp t ~pid:e.pid))
      result.Aug.F.trace;
    let appends =
      List.filter_map
        (fun (e : Aug.F.trace_entry) ->
          match e.op with
          | Aug.Ops.Happend_triples ts ->
            Some
              ( e.idx,
                e.pid,
                List.map (fun (tr : Hrep.triple) -> tr.Hrep.comp) ts )
          | Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _ -> None)
        result.Aug.F.trace
    in
    let errs = ref [] in
    List.iter
      (function
        | Aug.Scan_op _ | Aug.Bu_op { result = Aug.Yield; _ } -> ()
        | Aug.Bu_op
            {
              proc = q;
              updates;
              start_idx;
              x_idx;
              result = Aug.Atomic _;
              _;
            } -> (
          let qcomps = List.map fst updates in
          match Hashtbl.find_opt stamps start_idx with
          | None -> ()
          | Some scan_stamp ->
            List.iter
              (fun (idx, p, comps) ->
                if
                  p < q && idx < x_idx
                  && List.exists (fun c -> List.mem c qcomps) comps
                  && not (Hb.Clock.leq (Hashtbl.find stamps idx) scan_stamp)
                then
                  errs :=
                    Printf.sprintf
                      "race: atomic Block-Update by %d over [%d,%d] did not \
                       observe conflicting append by %d at %d (%s not <= %s)"
                      q start_idx x_idx p idx
                      (Hb.Clock.show (Hashtbl.find stamps idx))
                      (Hb.Clock.show scan_stamp)
                    :: !errs)
              appends))
      (Aug.log aug);
    List.rev !errs

  let race : exec Oracle.t =
    {
      Oracle.name = "race";
      on_truncated = true;
      check = (fun { aug; result; _ } -> race_errors aug result);
    }

  let default_oracles = [ no_failure; spec; theorem20; progress () ]

  let live_of statuses =
    let live = ref [] in
    Array.iteri
      (fun pid st ->
        match st with
        | Rsim_runtime.Fiber.Pending -> live := pid :: !live
        | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Failed _
        | Rsim_runtime.Fiber.Crashed -> ())
      statuses;
    List.rev !live

  let workload ?(oracles = default_oracles) ?inject ?(faults = [])
      ~name ~f ~m ~bodies () =
    let ocs = oracle_counters oracles in
    let exec ~probe ~certify:_ ~sched ~max_ops ~check =
      let aug = Aug.create ?inject ~f ~m () in
      (* A plan is single-run (fire-once state), so compile it afresh for
         every execution: replays see the identical fault environment. *)
      let plan = Faults.plan ~adapter:Aug.fault_adapter faults in
      let control = Faults.control plan in
      (* Rolling state digests for the engine's fingerprint: one pair of
         accumulators per fiber folding its (operation, result) history
         — bodies are deterministic, so this pins down the fiber's whole
         local state — and one pair per single-writer H component
         folding, for each append, the issuer's fiber digest at issue
         time (append contents are a function of the issuer's history,
         so the payload itself, which contains recursive snapshots,
         never needs hashing). A scan's result hash is the combined
         H-component digest at scan time. *)
      let fib1 = Array.make f 0x1505 in
      let fib2 = Array.make f 0x9747 in
      let comp1 = Array.make f 0x1505 in
      let comp2 = Array.make f 0x9747 in
      let apply ~pid op =
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
          comp1.(pid) <- mix1 (mix1 comp1.(pid) fib1.(pid)) tag;
          comp2.(pid) <- mix2 (mix2 comp2.(pid) fib2.(pid)) tag);
        let r1, r2 =
          match res with
          | Aug.Ops.Ack -> (17, 17)
          | Aug.Ops.Snap _ ->
            (Array.fold_left mix1 5 comp1, Array.fold_left mix2 5 comp2)
        in
        fib1.(pid) <- mix1 (mix1 fib1.(pid) tag) r1;
        fib2.(pid) <- mix2 (mix2 fib2.(pid) tag) r2;
        res
      in
      let fingerprint live =
        let fold mixf a b =
          let h = ref 0 in
          Array.iter (fun d -> h := mixf !h d) a;
          Array.iter (fun d -> h := mixf !h d) b;
          List.iter (fun p -> h := mixf !h (p + 1)) live;
          !h
        in
        (fold mix1 fib1 comp1, fold mix2 fib2 comp2)
      in
      let fprobe =
        Option.map
          (fun p ~step ~live ->
            p { step; live; fingerprint = Some (fingerprint live) })
          probe
      in
      let result =
        Aug.F.run ~max_ops ~control ~obs_label:Aug.op_name ?probe:fprobe
          ~sched ~apply (bodies aug)
      in
      let live = live_of result.Aug.F.statuses in
      let complete = live = [] in
      let judge_now () = judge ocs ~complete { aug; result; complete } in
      {
        script =
          List.map (fun (e : Aug.F.trace_entry) -> e.pid) result.Aug.F.trace;
        live;
        steps = result.Aug.F.total_ops;
        errors = (if check then judge_now () else []);
        judge = judge_now;
      }
    in
    {
      name;
      n_procs = f;
      params = [ ("f", f); ("m", m) ];
      inject = Option.map fault_to_string inject;
      faults = (if faults = [] then None else Some (Faults.to_string faults));
      exec;
    }

  (* Deterministic pseudo-random bodies keyed on (f, m, pid): the same
     workload name + params always produces the same programs, so scripts
     persisted in artifacts stay replayable. *)
  let mixed_bodies ~f ~m aug =
    List.init f (fun pid _ ->
        let g = ref (Prng.make (0x6d78 + (97 * pid) + (13 * f) + m)) in
        let draw n =
          let k, g' = Prng.int !g n in
          g := g';
          k
        in
        for _ = 1 to 3 do
          if draw 3 = 0 then ignore (Aug.scan aug ~me:pid)
          else begin
            let r = 1 + draw (min m 2) in
            let comps = ref [] in
            while List.length !comps < r do
              let j = draw m in
              if not (List.mem j !comps) then comps := j :: !comps
            done;
            ignore
              (Aug.block_update aug ~me:pid
                 (List.map (fun j -> (j, Value.Int (draw 50))) !comps))
          end
        done)

  let builtin_names = [ "bu-conflict"; "bu-scan"; "bu-then-scan"; "mixed" ]

  let builtin ?inject ?faults ?oracles ~name ~f ~m () =
    let mk bodies =
      Some (workload ?oracles ?inject ?faults ~name ~f ~m ~bodies ())
    in
    match name with
    | "bu-conflict" ->
      mk (fun aug ->
          List.init f (fun pid _ ->
              ignore (Aug.block_update aug ~me:pid [ (0, Value.Int (pid + 1)) ])))
    | "bu-scan" ->
      mk (fun aug ->
          List.init f (fun pid _ ->
              if pid = 0 then
                ignore
                  (Aug.block_update aug ~me:0
                     (if m >= 2 then [ (0, Value.Int 1); (m - 1, Value.Int 2) ]
                      else [ (0, Value.Int 1) ]))
              else ignore (Aug.scan aug ~me:pid)))
    | "bu-then-scan" ->
      mk (fun aug ->
          List.init f (fun pid _ ->
              ignore
                (Aug.block_update aug ~me:pid
                   [ (pid mod m, Value.Int (pid + 1)) ]);
              ignore (Aug.scan aug ~me:pid)))
    | "mixed" -> mk (mixed_bodies ~f ~m)
    | _ -> None
end

(* ---------------------------------------------------------------- *)
(* Full-simulation workloads                                         *)
(* ---------------------------------------------------------------- *)

module Harness_target = struct
  type exec = { hspec : Harness.spec; result : Harness.result; complete : bool }

  let no_failure : exec Oracle.t =
    {
      Oracle.name = "no-failure";
      on_truncated = true;
      check =
        (fun { result; _ } ->
          let errs = ref [] in
          Array.iteri
            (fun pid st ->
              match st with
              | Rsim_runtime.Fiber.Failed e when not (Faults.is_injected e) ->
                errs :=
                  Printf.sprintf "simulator %d raised %s" pid
                    (Printexc.to_string e)
                  :: !errs
              | Rsim_runtime.Fiber.Failed _ (* modeled fault: a crash *)
              | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Pending
              | Rsim_runtime.Fiber.Crashed -> ())
            result.Harness.statuses;
          List.rev !errs);
    }

  let aug_spec : exec Oracle.t =
    {
      Oracle.name = "aug-spec";
      on_truncated = true;
      check =
        (fun { result; _ } ->
          let r = Aug_spec.check result.Harness.aug result.Harness.trace in
          if r.Aug_spec.ok then [] else r.Aug_spec.errors);
    }

  let analysis : exec Oracle.t =
    {
      Oracle.name = "lemma26-replay";
      on_truncated = false;
      check =
        (fun { hspec; result; _ } ->
          let r = Analysis.check hspec result in
          if r.Analysis.ok then [] else r.Analysis.errors);
    }

  let consensus : exec Oracle.t =
    {
      Oracle.name = "consensus";
      on_truncated = false;
      check =
        (fun { hspec; result; _ } ->
          match Harness.validate hspec result ~task:Task.consensus with
          | Ok () -> []
          | Error e -> [ Harness.explain e ]);
    }

  (* Crash-fault validation: crashed/quarantined simulators are excused;
     the survivors must still solve the task. *)
  let consensus_survivors : exec Oracle.t =
    {
      Oracle.name = "consensus-survivors";
      on_truncated = false;
      check =
        (fun { hspec; result; _ } ->
          match
            Harness.validate ~survivors_only:true hspec result
              ~task:Task.consensus
          with
          | Ok () -> []
          | Error e -> [ Harness.explain e ]);
    }

  (* Harness-level non-blocking detector, over the simulation's M. *)
  let progress ?(window = 48) () : exec Oracle.t =
    {
      Oracle.name = "progress";
      on_truncated = true;
      check =
        (fun { result; complete; _ } ->
          let steps = result.Harness.total_ops in
          if complete || steps < window then []
          else
            let horizon = steps - window in
            let recent =
              List.exists
                (fun mop ->
                  (match mop with
                  | Aug.Scan_op { end_idx; _ } | Aug.Bu_op { end_idx; _ } ->
                    end_idx)
                  >= horizon)
                (Aug.log result.Harness.aug)
            in
            if recent then []
            else
              [
                Printf.sprintf
                  "no M-operation completed in the final %d of %d steps while \
                   a simulator was still pending (blocking)"
                  window steps;
              ]);
    }

  let default_oracles = [ no_failure; aug_spec; analysis; consensus ]

  (* With faults on, strict all-done validation and the Lemma 26 replay
     no longer apply (crashed simulators leave partial journals): switch
     to survivor validation plus the progress detector. *)
  let fault_oracles = [ no_failure; aug_spec; progress (); consensus_survivors ]

  let racing ?oracles ?(faults = []) ?watchdog ~n ~m ~f ~d () =
    let oracles =
      match oracles with
      | Some os -> os
      | None -> if faults = [] then default_oracles else fault_oracles
    in
    let ocs = oracle_counters oracles in
    let exec ~probe ~certify:_ ~sched ~max_ops ~check =
      let hspec =
        {
          Harness.protocol = (fun pid input -> (Racing.protocol ~m ()) pid input);
          n;
          m;
          f;
          d;
          inputs = List.init f (fun p -> Value.Int (p + 1));
        }
      in
      (* No state fingerprint for simulation runs: simulator local state
         is too rich to digest soundly at this boundary, so the engine
         still shares prefixes but never dedups. *)
      let fprobe =
        Option.map
          (fun p ~step ~live -> p { step; live; fingerprint = None })
          probe
      in
      let result =
        Harness.run ~max_ops ~faults ?watchdog ?probe:fprobe ~sched hspec
      in
      let live = ref [] in
      Array.iteri
        (fun pid st ->
          match st with
          | Rsim_runtime.Fiber.Pending -> live := pid :: !live
          | Rsim_runtime.Fiber.Done | Rsim_runtime.Fiber.Failed _
          | Rsim_runtime.Fiber.Crashed -> ())
        result.Harness.statuses;
      let live = List.rev !live in
      let complete = live = [] in
      let judge_now () = judge ocs ~complete { hspec; result; complete } in
      {
        script =
          List.map
            (fun (e : Rsim_augmented.Aug.F.trace_entry) -> e.pid)
            result.Harness.trace;
        live;
        steps = result.Harness.total_ops;
        errors = (if check then judge_now () else []);
        judge = judge_now;
      }
    in
    {
      name = "racing";
      n_procs = f;
      params = [ ("n", n); ("m", m); ("f", f); ("d", d) ];
      inject = None;
      faults = (if faults = [] then None else Some (Faults.to_string faults));
      exec;
    }
end
