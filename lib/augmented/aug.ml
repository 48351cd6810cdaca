open Rsim_value

module Ops = struct
  type op =
    | Hscan
    | Happend_triples of Hrep.triple list
    | Happend_lrecords of Hrep.lrecord list

  type res = Snap of Hrep.snap | Ack

  let appends_triples = function
    | Happend_triples (_ :: _) -> true
    | Happend_triples [] | Hscan | Happend_lrecords _ -> false
end

module Obs = Rsim_obs.Obs

let op_name : Ops.op -> string = function
  | Ops.Hscan -> "H.scan"
  | Ops.Happend_triples _ -> "H.append-triples"
  | Ops.Happend_lrecords _ -> "H.append-lrecords"

(* Always-on M-operation counters (atomic increments, no allocation on
   the fast path) and the trace spans behind {!Obs.Trace.enabled}. *)
let m_scans = Obs.Metrics.counter "aug.scan.total"
let m_scan_retries = Obs.Metrics.counter "aug.scan.retries"
let m_helping = Obs.Metrics.counter "aug.helping.writes"
let m_bu = Obs.Metrics.counter "aug.bu.total"
let m_bu_yield = Obs.Metrics.counter "aug.bu.yield"
let m_bu_atomic = Obs.Metrics.counter "aug.bu.atomic"
let h_scan_hops = Obs.Metrics.histogram "aug.scan.hops"
let h_bu_hops = Obs.Metrics.histogram "aug.bu.hops"

(* How the generic fault plane drops or corrupts H operations: a dropped
   write appends nothing (the writer still sees Ack and believes it
   succeeded); a corrupted write keeps its timestamp but garbles the
   first written value. Scans cannot be dropped or corrupted. *)
let fault_adapter : Ops.op Rsim_faults.Faults.adapter =
  {
    Rsim_faults.Faults.drop =
      (function
      | Ops.Happend_triples (_ :: _) -> Some (Ops.Happend_triples [])
      | Ops.Happend_lrecords (_ :: _) -> Some (Ops.Happend_lrecords [])
      | Ops.Hscan | Ops.Happend_triples [] | Ops.Happend_lrecords [] -> None);
    corrupt =
      (fun g op ->
        match op with
        | Ops.Happend_triples (tr :: rest) ->
          let k, _ = Rsim_value.Prng.int g 0x10000 in
          Some
            (Ops.Happend_triples
               ({ tr with Hrep.value = Value.Int (0x7bad0000 lor k) } :: rest))
        | Ops.Happend_triples [] | Ops.Happend_lrecords _ | Ops.Hscan -> None);
  }

include Aug_spec.Mop

let mop_proc = function Scan_op { proc; _ } -> proc | Bu_op { proc; _ } -> proc

type fault = Skip_yield_check | Yield_on_higher | Spin_on_yield

type note = ..
type note += Mop of mop

module Prog = Rsim_runtime.Prog.Make (struct
  include Ops

  type nonrec note = note
end)

type config = { f : int; m : int; helping : bool; inject : fault option }

type t = {
  cfg : config;
  mutable h : Hrep.snap;
      (** published snapshot: replaced on every append, never mutated *)
  mutable clock : int;
  mutable ix : Aug_spec.index;  (** the trace index of the run so far *)
}

let create ?(helping = true) ?inject ~f ~m () =
  if f <= 0 || m <= 0 then invalid_arg "Aug.create: f and m must be positive";
  {
    cfg = { f; m; helping; inject };
    h = Hrep.create ~f;
    clock = 0;
    ix = Aug_spec.start ~m;
  }

let config t = t.cfg
let m t = t.cfg.m
let index t = t.ix
let log t = List.rev (Aug_spec.rev_log t.ix)

let iter_log t f =
  let rec go = function
    | [] -> ()
    | mop :: older ->
      go older;
      f mop
  in
  go (Aug_spec.rev_log t.ix)

let clock t = t.clock

let record t = function
  | Mop mop -> t.ix <- Aug_spec.complete t.ix mop
  | _ -> ()

type saved = { s_h : Hrep.snap; s_clock : int; s_ix : Aug_spec.index }

let save t = { s_h = t.h; s_clock = t.clock; s_ix = t.ix }

let restore t s =
  t.h <- s.s_h;
  t.clock <- s.s_clock;
  t.ix <- s.s_ix

(* Each H-operation runs at the clock's trace index, and a scan or a
   triple append extends the index there. *)
let apply t ~pid (op : Ops.op) : Ops.res =
  let idx = t.clock in
  let res : Ops.res =
    match op with
    | Ops.Hscan ->
      t.ix <- Aug_spec.hop_scan t.ix ~idx ~pid t.h;
      Ops.Snap t.h
    | Ops.Happend_triples triples ->
      let h' = Array.copy t.h in
      h'.(pid) <- Hrep.append_triples h'.(pid) triples;
      t.h <- h';
      t.ix <- Aug_spec.hop_append t.ix ~idx ~pid triples;
      Ops.Ack
    | Ops.Happend_lrecords recs ->
      let h' = Array.copy t.h in
      h'.(pid) <- Hrep.append_lrecords h'.(pid) recs;
      t.h <- h';
      Ops.Ack
  in
  t.clock <- idx + 1;
  res

open Prog

(* Algorithms 3 and 4 are written directly over [Op] and [Emit]: each
   takes the continuation of its M-operation and calls it once the
   operation's note is out, and every step continues from a loop or a
   branch by calling a function. Nothing here binds a program: a bind
   wraps each operation of the program it is bound to, once per hop, so
   the callers pass their continuations too. *)

(* The snapshot an H.scan returned. *)
let snap : Ops.res -> Hrep.snap = function
  | Ops.Snap s -> s
  | Ops.Ack -> assert false

(* The helping records [L_{me,i}[#h_i] := h] for [i] from 0 to [j] but
   [skip], ascending, in front of [acc]. *)
let rec help_recs (h : Hrep.snap) ~skip j acc =
  if j < 0 then acc
  else if j = skip then help_recs h ~skip (j - 1) acc
  else
    help_recs h ~skip (j - 1)
      ({ Hrep.dest = j; index = Hrep.count_bu h.(j); payload = h } :: acc)

(* Algorithm 3: a Scan by [me], continued by [k] with its view. *)
let scan_prog cfg ~me k =
  if me < 0 || me >= cfg.f then invalid_arg "Aug.scan: bad process id";
  let finish ~first_idx h end_idx n_ops =
    let view = Hrep.get_view ~m:cfg.m h in
    Obs.Metrics.incr m_scans;
    Obs.Metrics.observe h_scan_hops n_ops;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~name:"M.scan" ~pid:me ~ts:first_idx
        ~dur:(end_idx - first_idx + 1)
        ~args:[ ("hops", Obs.Json.Int n_ops) ]
        ();
    Emit
      ( Mop
          (Scan_op
             { proc = me; start_idx = first_idx; end_idx; n_ops; view; h }),
        fun () -> k view )
  in
  let rec rescan ~first_idx h n_ops =
    Op
      ( Ops.Hscan,
        fun r idx' ->
          let h' = snap r in
          if Hrep.equal_triples h h' then finish ~first_idx h idx' (n_ops + 1)
          else begin
            Obs.Metrics.incr m_scan_retries;
            loop ~first_idx h' (n_ops + 1)
          end )
  and loop ~first_idx h n_ops =
    (* Help everyone: L_{me,j}[#h_j] := h for all j ≠ me, in one update.
       (Skipped by the E9 ablation.) *)
    if cfg.helping then
      let recs = help_recs h ~skip:me (cfg.f - 1) [] in
      Op
        ( Ops.Happend_lrecords recs,
          fun _ _ ->
            if recs <> [] then Obs.Metrics.incr m_helping;
            rescan ~first_idx h (n_ops + 1) )
    else rescan ~first_idx h n_ops
  in
  Op (Ops.Hscan, fun r first_idx -> loop ~first_idx (snap r) 1)

let rec comp_absent j = function
  | [] -> true
  | (k, _) :: rest -> k <> j && comp_absent j rest

let rec comps_distinct = function
  | [] -> true
  | (j, _) :: rest -> comp_absent j rest && comps_distinct rest

let rec comps_in_range m = function
  | [] -> true
  | (j, _) :: rest -> j >= 0 && j < m && comps_in_range m rest

(* Whether some pid in [lo, hi) has more Block-Updates in [h'] than in
   [h]. *)
let rec grew (h : Hrep.snap) (h' : Hrep.snap) lo hi =
  lo < hi
  && (Hrep.count_bu h'.(lo) > Hrep.count_bu h.(lo) || grew h h' (lo + 1) hi)

(* Lines 13-15: the freshest view among the L-records [L_{j,me}[b]] that
   [r_snap] holds for [j] from [j] up, starting from [last]. *)
let rec freshest cfg ~me r_snap ~b last j =
  if j = cfg.f then last
  else
    let last =
      if j = me then last
      else
        match Hrep.read_l r_snap ~writer:j ~reader:me ~index:b with
        | Some rj when Hrep.is_proper_prefix last rj -> rj
        | Some _ | None -> last
    in
    freshest cfg ~me r_snap ~b last (j + 1)

(* Lines 8-15 of [me]'s Block-Update of [updates] with timestamp [ts],
   whose Line-2 scan returned [h] at [start_idx] and whose Line-4 append
   ran at [x_idx]; then [k] with its result. *)
let line8 cfg ~me updates ~h ~ts ~start_idx ~x_idx k =
  Op
    ( Ops.Hscan,
      fun r end_idx5 ->
        let h' = snap r in
        (* Line 9: yield iff a lower-identifier process appended new
           triples. Seeded faults mutate exactly this test. *)
        let new_lower =
          match cfg.inject with
          | None | Some Spin_on_yield -> grew h h' 0 me
          | Some Skip_yield_check -> false
          | Some Yield_on_higher -> grew h h' (me + 1) cfg.f
        in
        if new_lower && cfg.inject = Some Spin_on_yield then
          (* Deliberately blocking mutation: instead of yielding,
             busy-wait re-scanning H forever. Breaks non-blocking
             progress — the target of the explorer's progress oracle. *)
          let rec spin () = Op (Ops.Hscan, fun _ _ -> spin ()) in
          spin ()
        else if new_lower then begin
          let n_ops = if cfg.helping then 5 else 4 in
          Obs.Metrics.incr m_bu;
          Obs.Metrics.incr m_bu_yield;
          Obs.Metrics.observe h_bu_hops n_ops;
          if Obs.Trace.enabled () then
            Obs.Trace.complete ~name:"M.block-update" ~pid:me ~ts:start_idx
              ~dur:(end_idx5 - start_idx + 1)
              ~args:[ ("result", Obs.Json.Str "yield") ]
              ();
          Emit
            ( Mop
                (Bu_op
                   {
                     proc = me;
                     ts;
                     updates;
                     start_idx;
                     x_idx;
                     end_idx = end_idx5;
                     n_ops;
                     h;
                     result = Yield;
                   }),
              fun () -> k `Yield )
        end
        else begin
          let atomic last end_idx =
            let view = Hrep.get_view ~m:cfg.m last in
            let n_ops = if cfg.helping then 6 else 4 in
            Obs.Metrics.incr m_bu;
            Obs.Metrics.incr m_bu_atomic;
            Obs.Metrics.observe h_bu_hops n_ops;
            if Obs.Trace.enabled () then
              Obs.Trace.complete ~name:"M.block-update" ~pid:me ~ts:start_idx
                ~dur:(end_idx - start_idx + 1)
                ~args:[ ("result", Obs.Json.Str "atomic") ]
                ();
            Emit
              ( Mop
                  (Bu_op
                     {
                       proc = me;
                       ts;
                       updates;
                       start_idx;
                       x_idx;
                       end_idx;
                       n_ops;
                       h;
                       result = Atomic { view; last };
                     }),
                fun () -> k (`View view) )
          in
          (* Lines 12-15: read L_{j,me}[#h_me] for all j ≠ me, in one
             scan. The E9 ablation skips the reads and falls back to the
             Line-2 scan result — exactly the stale view the helping
             mechanism exists to refresh. *)
          if not cfg.helping then atomic h end_idx5
          else
            Op
              ( Ops.Hscan,
                fun r end_idx ->
                  atomic
                    (freshest cfg ~me (snap r) ~b:(Hrep.count_bu h.(me)) h 0)
                    end_idx )
        end )

(* Algorithm 4: a Block-Update by [me], continued by [k] with its
   result. *)
let block_update_prog cfg ~me updates k =
  if me < 0 || me >= cfg.f then invalid_arg "Aug.block_update: bad process id";
  (match updates with
  | [] -> invalid_arg "Aug.block_update: empty update list"
  | _ :: _ -> ());
  if not (comps_distinct updates) then
    invalid_arg "Aug.block_update: components must be distinct";
  if not (comps_in_range cfg.m updates) then
    invalid_arg "Aug.block_update: component out of range";
  (* Line 2 *)
  Op
    ( Ops.Hscan,
      fun r start_idx ->
        let h = snap r in
        (* Line 3 *)
        let ts = Hrep.new_timestamp h ~me in
        (* Line 4: X *)
        let triples =
          List.map (fun (j, v) -> { Hrep.comp = j; value = v; ts }) updates
        in
        Op
          ( Ops.Happend_triples triples,
            fun _ x_idx ->
              (* Line 5 *)
              Op
                ( Ops.Hscan,
                  fun r _ ->
                    (* Lines 6-7: help lower identifiers, one update.
                       (Skipped by the E9 ablation; the scan on Line 5 is
                       kept so the yield check's timing is unchanged.) *)
                    if cfg.helping then
                      let recs = help_recs (snap r) ~skip:me (me - 1) [] in
                      Op
                        ( Ops.Happend_lrecords recs,
                          fun _ _ ->
                            if recs <> [] then Obs.Metrics.incr m_helping;
                            line8 cfg ~me updates ~h ~ts ~start_idx ~x_idx k )
                    else line8 cfg ~me updates ~h ~ts ~start_idx ~x_idx k ) ) )

(* [r] distinct components below [m], drawn from [g] until there are [r]
   of them, latest first. *)
let rec draw_comps g ~m r comps =
  if List.length comps >= r then (comps, g)
  else
    let j, g = Prng.int g m in
    draw_comps g ~m r (if List.mem j comps then comps else j :: comps)

(* One value below [values] per component, drawn in list order. *)
let rec draw_values g ~values = function
  | [] -> ([], g)
  | j :: rest ->
    let v, g = Prng.int g values in
    let rest, g = draw_values g ~values rest in
    ((j, Value.Int v) :: rest, g)

let random_prog cfg ~me ~seed ~ops ~max_comps ~values =
  let rec go g k =
    if k = 0 then return ()
    else
      let c, g = Prng.int g 3 in
      if c = 0 then scan_prog cfg ~me (fun _ -> go g (k - 1))
      else
        let r, g = Prng.int g (min cfg.m max_comps) in
        let comps, g = draw_comps g ~m:cfg.m (r + 1) [] in
        let updates, g = draw_values g ~values comps in
        block_update_prog cfg ~me updates (fun _ -> go g (k - 1))
  in
  go (Prng.make seed) ops
