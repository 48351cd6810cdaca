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

module F = Rsim_runtime.Fiber.Make (Ops)
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

type bu_result =
  | Atomic of { view : Value.t array; last : Hrep.snap }
  | Yield

type mop =
  | Scan_op of {
      proc : int;
      start_idx : int;
      end_idx : int;
      n_ops : int;
      view : Value.t array;
      h : Hrep.snap;
    }
  | Bu_op of {
      proc : int;
      ts : Vts.t;
      updates : (int * Value.t) list;
      start_idx : int;
      x_idx : int;
      end_idx : int;
      n_ops : int;
      h : Hrep.snap;
      result : bu_result;
    }

let mop_proc = function Scan_op { proc; _ } -> proc | Bu_op { proc; _ } -> proc

type fault = Skip_yield_check | Yield_on_higher | Spin_on_yield

type t = {
  f : int;
  m : int;
  helping : bool;
  inject : fault option;
  mutable h : Hrep.snap;
      (** published snapshot: replaced on every append, never mutated *)
  mutable clock : int;
  mutable rev_log : mop list;
}

let create ?(helping = true) ?inject ~f ~m () =
  if f <= 0 || m <= 0 then invalid_arg "Aug.create: f and m must be positive";
  { f; m; helping; inject; h = Hrep.create ~f; clock = 0; rev_log = [] }

let f t = t.f
let m t = t.m
let log t = List.rev t.rev_log
let clock t = t.clock

let apply t ~pid (op : Ops.op) : Ops.res =
  let res : Ops.res =
    match op with
    | Ops.Hscan -> Ops.Snap t.h
    | Ops.Happend_triples triples ->
      let h' = Array.copy t.h in
      h'.(pid) <- Hrep.append_triples h'.(pid) triples;
      t.h <- h';
      Ops.Ack
    | Ops.Happend_lrecords recs ->
      let h' = Array.copy t.h in
      h'.(pid) <- Hrep.append_lrecords h'.(pid) recs;
      t.h <- h';
      Ops.Ack
  in
  t.clock <- t.clock + 1;
  res

(* Perform one H operation from inside a fiber and report its global
   index. The fiber is resumed synchronously after [apply], so
   [t.clock - 1] is exactly this operation's index. *)
let do_op t op =
  let res = F.op op in
  (res, t.clock - 1)

let hscan t =
  match do_op t Ops.Hscan with
  | Ops.Snap s, idx -> (s, idx)
  | (Ops.Ack, _) -> assert false

(* The helping records [L_{me,i}[#h_i] := h] for [i] from 0 to [j] but
   [skip], ascending, in front of [acc]. *)
let rec help_recs (h : Hrep.snap) ~skip j acc =
  if j < 0 then acc
  else if j = skip then help_recs h ~skip (j - 1) acc
  else
    help_recs h ~skip (j - 1)
      ({ Hrep.dest = j; index = Hrep.count_bu h.(j); payload = h } :: acc)

(* Algorithm 3. *)
let scan t ~me =
  if me < 0 || me >= t.f then invalid_arg "Aug.scan: bad process id";
  let h0, first_idx = hscan t in
  let n_ops = ref 1 in
  let rec loop h =
    (* Help everyone: L_{me,j}[#h_j] := h for all j ≠ me, in one update.
       (Skipped by the E9 ablation.) *)
    if t.helping then begin
      let recs = help_recs h ~skip:me (t.f - 1) [] in
      let _ = do_op t (Ops.Happend_lrecords recs) in
      if recs <> [] then Obs.Metrics.incr m_helping;
      incr n_ops
    end;
    let h', idx' = hscan t in
    incr n_ops;
    if Hrep.equal_triples h h' then (h, idx')
    else begin
      Obs.Metrics.incr m_scan_retries;
      loop h'
    end
  in
  let h, end_idx = loop h0 in
  let view = Hrep.get_view ~m:t.m h in
  Obs.Metrics.incr m_scans;
  Obs.Metrics.observe h_scan_hops !n_ops;
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~name:"M.scan" ~pid:me ~ts:first_idx
      ~dur:(end_idx - first_idx + 1)
      ~args:[ ("hops", Obs.Json.Int !n_ops) ]
      ();
  t.rev_log <-
    Scan_op { proc = me; start_idx = first_idx; end_idx; n_ops = !n_ops; view; h }
    :: t.rev_log;
  view

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

(* Algorithm 4. *)
let block_update t ~me updates =
  if me < 0 || me >= t.f then invalid_arg "Aug.block_update: bad process id";
  (match updates with
  | [] -> invalid_arg "Aug.block_update: empty update list"
  | _ :: _ -> ());
  if not (comps_distinct updates) then
    invalid_arg "Aug.block_update: components must be distinct";
  if not (comps_in_range t.m updates) then
    invalid_arg "Aug.block_update: component out of range";
  (* Line 2 *)
  let h, start_idx = hscan t in
  (* Line 3 *)
  let ts = Hrep.new_timestamp h ~me in
  (* Line 4: X *)
  let triples =
    List.map (fun (j, v) -> { Hrep.comp = j; value = v; ts }) updates
  in
  let _, x_idx = do_op t (Ops.Happend_triples triples) in
  (* Line 5 *)
  let g, _ = hscan t in
  (* Lines 6-7: help lower identifiers, one update. (Skipped by the E9
     ablation; the scan on Line 5 is kept so the yield check's timing is
     unchanged.) *)
  if t.helping then begin
    let recs = help_recs g ~skip:me (me - 1) [] in
    let _ = do_op t (Ops.Happend_lrecords recs) in
    if recs <> [] then Obs.Metrics.incr m_helping
  end;
  (* Line 8 *)
  let h', end_idx5 = hscan t in
  (* Line 9: yield iff a lower-identifier process appended new triples.
     Seeded faults mutate exactly this test. *)
  let new_lower =
    match t.inject with
    | None | Some Spin_on_yield -> grew h h' 0 me
    | Some Skip_yield_check -> false
    | Some Yield_on_higher -> grew h h' (me + 1) t.f
  in
  if new_lower && t.inject = Some Spin_on_yield then begin
    (* Deliberately blocking mutation: instead of yielding, busy-wait
       re-scanning H forever. Breaks non-blocking progress — the target
       of the explorer's progress oracle. *)
    while true do
      ignore (hscan t)
    done;
    assert false
  end
  else if new_lower then begin
    let n_ops = if t.helping then 5 else 4 in
    Obs.Metrics.incr m_bu;
    Obs.Metrics.incr m_bu_yield;
    Obs.Metrics.observe h_bu_hops n_ops;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~name:"M.block-update" ~pid:me ~ts:start_idx
        ~dur:(end_idx5 - start_idx + 1)
        ~args:[ ("result", Obs.Json.Str "yield") ]
        ();
    t.rev_log <-
      Bu_op
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
        }
      :: t.rev_log;
    `Yield
  end
  else begin
    (* Lines 12-15: read L_{j,me}[#h_me] for all j ≠ me, in one scan.
       The E9 ablation skips the reads and falls back to the Line-2 scan
       result — exactly the stale view the helping mechanism exists to
       refresh. *)
    let last = ref h in
    let end_idx =
      if not t.helping then end_idx5
      else begin
        let r_snap, end_idx = hscan t in
        let b = Hrep.count_bu h.(me) in
        for j = 0 to t.f - 1 do
          if j <> me then
            match Hrep.read_l r_snap ~writer:j ~reader:me ~index:b with
            | Some rj when Hrep.is_proper_prefix !last rj -> last := rj
            | Some _ | None -> ()
        done;
        end_idx
      end
    in
    let view = Hrep.get_view ~m:t.m !last in
    let n_ops = if t.helping then 6 else 4 in
    Obs.Metrics.incr m_bu;
    Obs.Metrics.incr m_bu_atomic;
    Obs.Metrics.observe h_bu_hops n_ops;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~name:"M.block-update" ~pid:me ~ts:start_idx
        ~dur:(end_idx - start_idx + 1)
        ~args:[ ("result", Obs.Json.Str "atomic") ]
        ();
    t.rev_log <-
      Bu_op
        {
          proc = me;
          ts;
          updates;
          start_idx;
          x_idx;
          end_idx;
          n_ops;
          h;
          result = Atomic { view; last = !last };
        }
      :: t.rev_log;
    `View view
  end
