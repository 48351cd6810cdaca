(* The four benchmark workloads. Each one builds its inputs from the
   workload seed, warms up, and then runs numbered passes over those same
   inputs; every pass checks the verdict of every job it runs against the
   expected one.

   With [traced] set, the calls the benchmark makes into the libraries'
   public functions are wrapped in spans ({!Span}): workload executions,
   oracle checks, engine calls, shrinking, artifact round trips, replays,
   simulation runs and the post-run checks. Nothing inside the libraries
   is instrumented, and [Obs.Trace] stays off. *)

open Core
module Artifact = Rsim_explore.Artifact
module Target = Explore.Aug_target

type ctx = { seed : int; domains : int; traced : bool }

type pass = {
  items : int;  (** units of work done (executions, schedules, ...) *)
  wrong : int;  (** of which the verdict was not the expected one *)
  jobs_ns : int list;  (** latency of each individually timed job *)
  facts : (string * int) list;
      (** counts read off the engines' reports, summed by the caller *)
}

type t = {
  name : string;
  counts : string;  (** what [pass.items] counts *)
  job : string;  (** what one timed job is *)
  fans_out : bool;
      (** passes can spread over [ctx.domains] domains; the traced run
          measures their scaling *)
  labels : string list;  (** names of a pass's jobs, when they differ *)
  per_process : int;
      (** passes one process may run, 0 for no limit: executions stopped
          or truncated midway leave their fibers' stacks allocated, so
          resident memory grows with every exhaustive tree or sweep *)
  fixed_facts : bool;
      (** every pass must report the same [facts], whatever its domain
          count *)
  prepare : ctx -> int -> pass;
      (** build and warm up (the set-up), returning the pass runner *)
}

(* A deterministic stream of sub-seeds: job numbers mixed into the
   workload seed. Every pass of a run draws the same sub-seeds, so its
   passes run the same inputs. *)
let mix seed k = ((seed * 0x9E3779B1) lxor (k * 0x85EBCA77) + k) land 0x3FFFFFFF

(* Warm-ups run on fixed inputs, so set-up costs the same whatever the
   workload seed. *)
let warmup_seed = 0x5EED

let span ctx name fn = if ctx.traced then Span.with_span name fn else fn ()

let timed fn =
  let t0 = Span.now () in
  let v = fn () in
  (v, Span.now () - t0)

let wrap_oracle ctx (o : _ Explore.Oracle.t) =
  if not ctx.traced then o
  else
    let name = "oracle." ^ o.Explore.Oracle.name in
    { o with check = (fun ex -> Span.with_span name (fun () -> o.check ex)) }

let wrap_exec ctx (w : Explore.workload) =
  if not ctx.traced then w
  else
    {
      w with
      exec =
        (fun ~probe ~certify ~sched ~max_ops ~check ->
          Span.with_span "exec" (fun () ->
              w.exec ~probe ~certify ~sched ~max_ops ~check));
    }

let builtin ctx ?inject ?faults ~oracles ~name ~f ~m () =
  match
    Target.builtin ?inject ?faults
      ~oracles:(List.map (wrap_oracle ctx) oracles)
      ~name ~f ~m ()
  with
  | Some w -> wrap_exec ctx w
  | None -> invalid_arg ("unknown builtin workload " ^ name)

let exhaustive ctx ?max_violations ~max_steps w =
  span ctx "explore.exhaustive" (fun () ->
      Explore.exhaustive ?max_violations ~max_steps ~domains:ctx.domains w)

let sweep ctx ~max_steps ~budget ~seed w =
  span ctx "explore.sweep" (fun () ->
      Explore.sweep ~domains:ctx.domains ~max_steps ~budget ~seed w)

(* ---------------------------------------------------------------- *)
(* verify: exhaustive check of the augmented snapshot                *)
(* ---------------------------------------------------------------- *)

(* 11 steps, a pass of about 0.2 s that leaves about 80 MB of fiber
   stacks behind: a 12-step tree takes 0.8 s and leaves about 200 MB, so
   a worker's four passes would need most of a gigabyte. *)
let verify_max_steps = 11

let verify =
  let prepare ctx =
    let w =
      builtin ctx ~oracles:Target.default_oracles ~name:"mixed" ~f:3 ~m:2 ()
    in
    ignore (Explore.exhaustive ~max_steps:10 ~domains:ctx.domains w);
    fun _ ->
      let r, ns = timed (fun () -> exhaustive ctx ~max_steps:verify_max_steps w) in
      let counts =
        Explore.
          [
            ("explore.prefixes", r.prefixes);
            ("explore.tree_executions", r.executions);
            ("verify.complete", r.complete);
            ("verify.truncated", r.truncated);
            ("verify.dedup_hits", r.dedup_hits);
            ("verify.sleep_prunes", r.pruned);
          ]
      in
      {
        items = r.executions;
        wrong = List.length r.violations;
        jobs_ns = [ ns ];
        facts = counts;
      }
  in
  {
    name = "verify";
    counts = "executions";
    job = "exhaustive tree";
    fans_out = true;
    labels = [];
    per_process = 4;
    fixed_facts = true;
    prepare;
  }

(* ---------------------------------------------------------------- *)
(* sweep-faults: randomized schedules under a fixed fault profile    *)
(* ---------------------------------------------------------------- *)

(* A fixed literal profile: the named families draw their specs from the
   seed, and their cost differs several-fold between families. Process 3
   crashes late, and the object has m=2 components: with an early crash
   or with m=3 the Wing-Gong check is heavy-tailed (one schedule in a
   thousand costs up to 100 ms against a median of 0.2 ms), so a seed's
   cost depended on whether it drew such a schedule. *)
let sweep_profile = "restart@0:7+2,crash@3:12,restart@2:7+1"
let sweep_jobs = 16
let sweep_budget = 256
let sweep_max_steps = 200

let sweep_faults =
  let prepare ctx =
    let faults =
      match Faults.of_string sweep_profile with
      | Ok specs -> specs
      | Error e -> failwith e
    in
    let oracles =
      Target.default_oracles
      @ [ Target.crash_robust; Target.linearizable; Target.race ]
    in
    let w = builtin ctx ~faults ~oracles ~name:"mixed" ~f:4 ~m:2 () in
    ignore
      (Explore.sweep ~domains:ctx.domains ~max_steps:sweep_max_steps
         ~budget:sweep_budget ~seed:warmup_seed w);
    fun _ ->
      let rec go j items wrong jobs =
        if j = sweep_jobs then
          { items; wrong; jobs_ns = List.rev jobs; facts = [] }
        else
          let seed = mix ctx.seed j in
          let r, ns =
            timed (fun () ->
                sweep ctx ~max_steps:sweep_max_steps ~budget:sweep_budget ~seed
                  w)
          in
          go (j + 1)
            (items + r.Explore.executions)
            (wrong + List.length r.Explore.violations)
            (ns :: jobs)
      in
      go 0 0 0 []
  in
  {
    name = "sweep-faults";
    counts = "schedules";
    job = "sweep of 256 schedules";
    fans_out = true;
    labels = [];
    per_process = 4;
    fixed_facts = false;
    prepare;
  }

(* ---------------------------------------------------------------- *)
(* reduce: the Theorem 21 simulation of racing consensus             *)
(* ---------------------------------------------------------------- *)

(* (n, m, f, d): the E4/E5 shapes, then larger ones up to n=16, m=4,
   f=4. Each satisfies (f - d) * m + d <= n. *)
let reduce_shapes =
  [
    (2, 2, 1, 0);
    (4, 2, 2, 0);
    (6, 3, 2, 0);
    (5, 2, 3, 1);
    (7, 2, 4, 1);
    (7, 5, 2, 1);
    (8, 2, 4, 0);
    (10, 3, 3, 1);
    (12, 3, 4, 0);
    (13, 4, 3, 1);
    (16, 4, 4, 0);
  ]

let reduce_runs_per_shape = 40
let reduce_warmup_runs = 10

let racing_spec ~n ~m ~f ~d =
  {
    Harness.protocol = (fun pid input -> (Racing.protocol ~m ()) pid input);
    n;
    m;
    f;
    d;
    inputs = List.init f (fun p -> Value.Int (p + 1));
  }

(* One simulation and its checks: wait-free (every simulator output a
   valid input), the Lemma 26 replay, and the section 3 specification of
   the augmented snapshot it ran on. Returns the hidden steps the replay
   inserted, or [None] on a wrong verdict. *)
let simulate ctx spec ~seed =
  let result =
    span ctx "sim.run" (fun () ->
        Harness.run ~sched:(Schedule.random ~seed) spec)
  in
  let valid =
    span ctx "validate" (fun () ->
        Harness.validate spec result ~task:(Task.kset ~k:spec.Harness.f))
  in
  let analysis = span ctx "analysis" (fun () -> Analysis.check spec result) in
  let aug =
    span ctx "augspec" (fun () ->
        Aug_spec.check result.Harness.aug result.Harness.trace)
  in
  if result.Harness.all_done && valid = Ok () && analysis.Analysis.ok
     && aug.Aug_spec.ok
  then Some analysis.Analysis.stats.Analysis.n_hidden_steps
  else None

let reduce =
  let prepare ctx =
    let specs =
      List.map (fun (n, m, f, d) -> racing_spec ~n ~m ~f ~d) reduce_shapes
    in
    List.iteri
      (fun k spec ->
        for r = 1 to reduce_warmup_runs do
          ignore (simulate ctx spec ~seed:(mix warmup_seed ((k * 64) + r)))
        done)
      specs;
    fun _ ->
      let items = ref 0 and wrong = ref 0 and hidden = ref 0 in
      let jobs = ref [] in
      List.iteri
        (fun k spec ->
          for r = 0 to reduce_runs_per_shape - 1 do
            let seed = mix ctx.seed ((k * 4096) + r) in
            let verdict, ns = timed (fun () -> simulate ctx spec ~seed) in
            incr items;
            jobs := ns :: !jobs;
            match verdict with
            | Some h -> hidden := !hidden + h
            | None ->
              incr wrong;
              Printf.eprintf "reduce: wrong verdict n=%d m=%d f=%d d=%d seed=%d\n%!"
                spec.Harness.n spec.Harness.m spec.Harness.f spec.Harness.d seed
          done)
        specs;
      {
        items = !items;
        wrong = !wrong;
        jobs_ns = List.rev !jobs;
        facts = [ ("analysis.hidden_steps", !hidden) ];
      }
  in
  {
    name = "reduce";
    counts = "simulations";
    job = "simulation and its checks";
    fans_out = false;
    labels = [];
    per_process = 0;
    fixed_facts = false;
    prepare;
  }

(* ---------------------------------------------------------------- *)
(* hunt: seeded bugs and the Corollary 33 witness                    *)
(* ---------------------------------------------------------------- *)

type engine = Exhaustive | Sweep of int  (** budget *)

type hunt_job = {
  label : string;
  engine : engine;
  max_steps : int;
  build : ctx -> Explore.workload;
}

let seeded ~bug ~name ~f ~m ctx =
  let inject =
    match Explore.fault_of_string bug with
    | Some b -> b
    | None -> invalid_arg ("unknown seeded bug " ^ bug)
  in
  builtin ctx ~inject ~oracles:Target.default_oracles ~name ~f ~m ()

let racing_witness ~n ~m ~f ~d ctx =
  wrap_exec ctx
    (Explore.Harness_target.racing
       ~oracles:
         (List.map (wrap_oracle ctx) Explore.Harness_target.default_oracles)
       ~n ~m ~f ~d ())

(* Two small seeded sweeps: a sweep's time to its first counterexample,
   and the shrinking of whichever one it finds, varies several-fold
   between seeds, and the larger seeded sweeps (spin-on-yield on mixed
   f=3 m=2, racing n=6, and still racing n=4 m=2 and n=3 m=2, 3 to 45 ms
   by seed) made most of the catalogue's run-to-run spread. The racing
   witness runs at n=2 m=1, whose counterexamples all take 6 steps. *)
let hunt_catalogue =
  let ex bug name f m max_steps =
    {
      label = Printf.sprintf "%s %s f=%d m=%d" bug name f m;
      engine = Exhaustive;
      max_steps;
      build = seeded ~bug ~name ~f ~m;
    }
  in
  [
    ex "yield-on-higher" "bu-conflict" 2 2 12;
    ex "yield-on-higher" "mixed" 3 2 14;
    ex "yield-on-higher" "bu-then-scan" 3 2 14;
    ex "skip-yield-check" "bu-conflict" 3 2 14;
    ex "skip-yield-check" "bu-then-scan" 2 2 14;
    ex "skip-yield-check" "mixed" 3 2 11;
    {
      label = "spin-on-yield bu-conflict f=2 m=2";
      engine = Sweep 2000;
      max_steps = 200;
      build = seeded ~bug:"spin-on-yield" ~name:"bu-conflict" ~f:2 ~m:2;
    };
    {
      label = "racing n=2 m=1 f=2 d=0";
      engine = Sweep 2000;
      max_steps = 200;
      build = racing_witness ~n:2 ~m:1 ~f:2 ~d:0;
    };
  ]

let artifact_dir = ".perfbench_out"
let artifact_path = Filename.concat artifact_dir "hunt-artifact.json"

(* Find a counterexample, shrink its original schedule again (shrinking
   is deterministic, so this must give the engine's script), save and
   load it as an artifact, rebuild the workload from the artifact and
   replay: the replay must fail again. Returns the counts the job saw
   (tree sizes, original and shrunk lengths), or an explanation of the
   wrong verdict. *)
let hunt_one ctx ~seed job w =
  let max_steps = job.max_steps in
  let violations, tree =
    match job.engine with
    | Exhaustive ->
      let r = exhaustive ctx ~max_violations:1 ~max_steps w in
      Explore.
        ( r.violations,
          [
            ("explore.prefixes", r.prefixes);
            ("explore.tree_executions", r.executions);
          ] )
    | Sweep budget -> ((sweep ctx ~max_steps ~budget ~seed w).Explore.violations, [])
  in
  match violations with
  | [] -> Error "no counterexample found"
  | v :: _ -> (
    let shrunk =
      span ctx "shrink" (fun () ->
          Explore.shrink w ~max_steps ~script:v.Explore.original)
    in
    if shrunk <> v.Explore.script then Error "shrink is not deterministic"
    else
      let loaded =
        span ctx "artifact" (fun () ->
            let a =
              Artifact.of_violation ~workload:w ~max_steps
                { v with Explore.script = shrunk }
            in
            Artifact.save ~path:artifact_path a;
            match Artifact.load ~path:artifact_path with
            | Error e -> Error e
            | Ok b when b.Artifact.script <> shrunk -> Error "script changed"
            | Ok b ->
              Result.map (fun w' -> (b, wrap_exec ctx w')) (Artifact.to_workload b))
      in
      match loaded with
      | Error e -> Error ("artifact round trip: " ^ e)
      | Ok (a, w') ->
        let out =
          span ctx "replay" (fun () ->
              Explore.replay w' ~max_steps:a.Artifact.max_steps
                ~script:a.Artifact.script)
        in
        if out.Explore.errors = [] then Error "replay does not fail"
        else
          Ok
            (("shrink.in_steps", List.length v.Explore.original)
            :: ("shrink.out_steps", List.length shrunk)
            :: tree))

(* Sum two association lists of counts. *)
let add_facts a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 + v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    a b

let hunt =
  let prepare ctx =
    if not (Sys.file_exists artifact_dir) then Sys.mkdir artifact_dir 0o755;
    let jobs = List.map (fun j -> (j, j.build ctx)) hunt_catalogue in
    List.iteri
      (fun k (j, w) -> ignore (hunt_one ctx ~seed:(mix warmup_seed k) j w))
      jobs;
    fun i ->
      let wrong = ref 0 and facts = ref [] in
      let lat =
        List.mapi
          (fun k (j, w) ->
            Span.set_job ((i * 64) + k);
            let seed = mix ctx.seed k in
            let r, ns = timed (fun () -> hunt_one ctx ~seed j w) in
            (match r with
            | Ok f -> facts := add_facts !facts f
            | Error e ->
              incr wrong;
              Printf.eprintf "hunt: %s: %s\n%!" j.label e);
            ns)
          jobs
      in
      {
        items = List.length jobs;
        wrong = !wrong;
        jobs_ns = lat;
        facts = !facts;
      }
  in
  {
    name = "hunt";
    counts = "jobs";
    job = "catalogue job";
    fans_out = true;
    labels = List.map (fun j -> j.label) hunt_catalogue;
    per_process = 4;
    fixed_facts = false;
    prepare;
  }

let all = [ verify; sweep_faults; reduce; hunt ]
