(* The §3 spec checker as it was before it walked bounded trace ranges:
   [window_start] rescans the whole trace for every atomic Block-Update,
   and the Theorem 20 and Lemma 2 checks filter the whole trace for every
   M-operation. Kept verbatim as the reference that the equivalence test
   in test_aug.ml compares {!Rsim_augmented.Aug_spec.check} against. *)

open Rsim_augmented
open Rsim_value

(* ---------------------------------------------------------------- *)
(* Linearization reconstruction (§3.3)                               *)
(* ---------------------------------------------------------------- *)

type litem =
  | L_scan of { proc : int; view : Value.t array; end_idx : int }
  | L_update of {
      writer : int;
      ts : Vts.t;
      comp : int;
      value : Value.t;
      x_idx : int;
      lin_idx : int;
    }

type bu_kind = Atomic_bu | Yield_bu | Incomplete_bu

(* One Update (a single-component write that is part of a Block-Update),
   as reconstructed from the trace. *)
type update_item = {
  u_comp : int;
  u_value : Value.t;
  u_ts : Vts.t;
  u_writer : int;
  u_x_idx : int;
  mutable u_lin : int;  (* linearization point (trace index); -1 = unset *)
  u_kind : bu_kind;
}

(* Reconstruct every Update from the trace (including those of
   Block-Updates that executed X but never completed), classifying each
   via [kind_of (pid, ts)]. *)
let reconstruct_updates ~kind_of trace =
  let updates = ref [] in
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      match e.op with
      | Aug.Ops.Happend_triples (({ ts; _ } :: _) as triples) ->
        let kind = kind_of (e.pid, ts) in
        List.iter
          (fun (tr : Hrep.triple) ->
            updates :=
              {
                u_comp = tr.comp;
                u_value = tr.value;
                u_ts = tr.ts;
                u_writer = e.pid;
                u_x_idx = e.idx;
                u_lin = -1;
                u_kind = kind;
              }
              :: !updates)
          triples
      | Aug.Ops.Happend_triples [] | Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _ ->
        ())
    trace;
  List.rev !updates

(* The linearization point of an Update (j, t) is the first trace index
   at which H contains a triple for component j with timestamp ≽ t.
   Sweep the trace maintaining the largest timestamp per component. *)
let assign_lin_points ~m trace updates =
  let pending = Array.make m [] in
  List.iter (fun u -> pending.(u.u_comp) <- u :: pending.(u.u_comp)) updates;
  Array.iteri
    (fun j us -> pending.(j) <- List.sort (fun a b -> Vts.compare a.u_ts b.u_ts) us)
    pending;
  let maxts = Array.make m None in
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      match e.op with
      | Aug.Ops.Happend_triples triples ->
        List.iter
          (fun (tr : Hrep.triple) ->
            (match maxts.(tr.comp) with
            | Some t when Vts.geq t tr.ts -> ()
            | _ -> maxts.(tr.comp) <- Some tr.ts);
            let rec pop () =
              match pending.(tr.comp) with
              | u :: rest
                when (match maxts.(tr.comp) with
                     | Some t -> Vts.geq t u.u_ts
                     | None -> false) ->
                u.u_lin <- e.idx;
                pending.(tr.comp) <- rest;
                pop ()
              | _ -> ()
            in
            pop ())
          triples
      | Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _ -> ())
    trace

type lin_internal = U of update_item | S of Aug.mop (* always a Scan_op *)

let lin_idx_of = function
  | U u -> u.u_lin
  | S (Aug.Scan_op { end_idx; _ }) -> end_idx
  | S (Aug.Bu_op _) -> assert false

(* Updates linearized at the same point are ordered by timestamp then
   component (§3.3). Scan and Update points never collide: they sit at
   Hscan and Happend_triples events respectively. *)
let sort_lin items =
  let compare_items a b =
    let c = Int.compare (lin_idx_of a) (lin_idx_of b) in
    if c <> 0 then c
    else
      match (a, b) with
      | U ua, U ub ->
        let c = Vts.compare ua.u_ts ub.u_ts in
        if c <> 0 then c else Int.compare ua.u_comp ub.u_comp
      | S _, S _ | U _, S _ | S _, U _ -> 0
  in
  List.stable_sort compare_items items

let internal_linearize aug trace ~kind_of =
  let m = Aug.m aug in
  let scans =
    List.filter_map
      (function Aug.Scan_op _ as s -> Some s | Aug.Bu_op _ -> None)
      (Aug.log aug)
  in
  let updates = reconstruct_updates ~kind_of trace in
  assign_lin_points ~m trace updates;
  let items = List.map (fun u -> U u) updates @ List.map (fun s -> S s) scans in
  (sort_lin items, updates)

let linearize aug trace =
  let items, _ = internal_linearize aug trace ~kind_of:(fun _ -> Incomplete_bu) in
  List.map
    (function
      | U u ->
        L_update
          {
            writer = u.u_writer;
            ts = u.u_ts;
            comp = u.u_comp;
            value = u.u_value;
            x_idx = u.u_x_idx;
            lin_idx = u.u_lin;
          }
      | S (Aug.Scan_op { proc; view; end_idx; _ }) -> L_scan { proc; view; end_idx }
      | S (Aug.Bu_op _) -> assert false)
    items

(* The paper's scan-result equality is over update triples (the prefix
   relation of Observation 1), so "the last scan that returns ℓ" means
   the last scan whose result is triple-equal to ℓ. H's triples are
   append-only, so per-component triple counts identify the state. *)
let window_start ~trace ~last ~x_idx =
  let profile (s : Hrep.snap) =
    Array.map (fun c -> List.length c.Hrep.triples) s
  in
  let target = profile last in
  let best = ref None in
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      match (e.op, e.res) with
      | Aug.Ops.Hscan, Aug.Ops.Snap s when e.idx < x_idx && profile s = target ->
        best := Some e.idx
      | _ -> ())
    trace;
  !best

(* ---------------------------------------------------------------- *)
(* The checker                                                       *)
(* ---------------------------------------------------------------- *)

type stats = Aug_spec.stats = {
  n_scans : int;
  n_bus : int;
  n_atomic : int;
  n_yield : int;
  n_incomplete_bus : int;
  max_scan_ops : int;
  max_bu_ops : int;
}

type report = Aug_spec.report = { ok : bool; errors : string list; stats : stats }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ok=%b scans=%d bus=%d (atomic=%d yield=%d incomplete=%d)@,errors:@,%a@]"
    r.ok r.stats.n_scans r.stats.n_bus r.stats.n_atomic r.stats.n_yield
    r.stats.n_incomplete_bus
    (Format.pp_print_list Format.pp_print_string)
    r.errors

let check aug trace =
  let m = Aug.m aug in
  let log = Aug.log aug in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in

  let completed_bu_key = Hashtbl.create 16 in
  List.iter
    (function
      | Aug.Bu_op { proc; ts; result; _ } ->
        let kind =
          match result with Aug.Atomic _ -> Atomic_bu | Aug.Yield -> Yield_bu
        in
        Hashtbl.replace completed_bu_key (proc, Vts.to_array ts) kind
      | Aug.Scan_op _ -> ())
    log;
  let n_incomplete = ref 0 in
  let kind_of (pid, ts) =
    match Hashtbl.find_opt completed_bu_key (pid, Vts.to_array ts) with
    | Some k -> k
    | None ->
      incr n_incomplete;
      Incomplete_bu
  in
  let order, updates = internal_linearize aug trace ~kind_of in

  (* Lemma 9: timestamps of distinct Block-Updates are distinct. *)
  let ts_seen = Hashtbl.create 16 in
  List.iter
    (fun u ->
      let key = Vts.to_array u.u_ts in
      match Hashtbl.find_opt ts_seen key with
      | Some writer when writer <> u.u_writer ->
        err "Lemma 9: timestamp %s used by both q%d and q%d" (Vts.show u.u_ts)
          writer u.u_writer
      | _ -> Hashtbl.replace ts_seen key u.u_writer)
    updates;
  List.iter
    (fun u ->
      if u.u_lin < 0 then
        err "internal: update to %d by q%d never linearized" u.u_comp u.u_writer)
    updates;

  (* Corollary 15: replay M along the linearization; every Scan's view
     must match. *)
  let contents = Array.make m Value.Bot in
  List.iter
    (fun item ->
      match item with
      | U u -> contents.(u.u_comp) <- u.u_value
      | S (Aug.Scan_op { proc; view; end_idx; _ }) ->
        if not (Array.for_all2 Value.equal contents view) then
          err "Corollary 15: Scan by q%d at idx %d returned a stale view" proc
            end_idx
      | S (Aug.Bu_op _) -> assert false)
    order;

  (* Lemma 11 / Lemma 12. *)
  let updates_of_bu proc ts =
    List.filter (fun u -> u.u_writer = proc && Vts.equal u.u_ts ts) updates
  in
  List.iter
    (function
      | Aug.Bu_op { proc; ts; x_idx; start_idx; result; _ } -> (
        let us = updates_of_bu proc ts in
        match result with
        | Aug.Atomic _ ->
          List.iter
            (fun u ->
              if u.u_lin <> x_idx then
                err
                  "Lemma 11: atomic Block-Update by q%d (ts %s): update to %d \
                   linearized at %d, not at X=%d"
                  proc (Vts.show ts) u.u_comp u.u_lin x_idx)
            us
        | Aug.Yield ->
          List.iter
            (fun u ->
              if not (u.u_lin > start_idx && u.u_lin <= x_idx) then
                err
                  "Lemma 12: yield Block-Update by q%d (ts %s): update to %d \
                   linearized at %d outside (%d, %d]"
                  proc (Vts.show ts) u.u_comp u.u_lin start_idx x_idx)
            us)
      | Aug.Scan_op _ -> ())
    log;

  (* Lemma 11 contiguity: in the final order, the updates of each atomic
     Block-Update appear consecutively. *)
  let order_arr = Array.of_list order in
  List.iter
    (function
      | Aug.Bu_op { proc; ts; result = Aug.Atomic _; _ } ->
        let positions = ref [] in
        Array.iteri
          (fun pos item ->
            match item with
            | U u when u.u_writer = proc && Vts.equal u.u_ts ts ->
              positions := pos :: !positions
            | _ -> ())
          order_arr;
        let ps = List.sort Int.compare !positions in
        (match ps with
        | [] -> ()
        | first :: _ ->
          List.iteri
            (fun k p ->
              if p <> first + k then
                err
                  "Lemma 11: updates of atomic Block-Update by q%d (ts %s) \
                   are not consecutive in the linearization"
                  proc (Vts.show ts))
            ps)
      | Aug.Bu_op _ | Aug.Scan_op _ -> ())
    log;

  (* ---- Windows (Lemmas 16-19). ---- *)
  let windows = ref [] in
  List.iter
    (function
      | Aug.Bu_op
          { proc; ts; x_idx; start_idx; result = Aug.Atomic { view; last }; _ }
        -> (
        match window_start ~trace ~last ~x_idx with
        | None ->
          err "Lemma 16: atomic Block-Update by q%d (ts %s): cannot locate L"
            proc (Vts.show ts)
        | Some l_idx ->
          if l_idx < start_idx then
            err
              "Lemma 16: atomic Block-Update by q%d (ts %s): L=%d before its \
               first scan %d"
              proc (Vts.show ts) l_idx start_idx;
          windows := (proc, ts, l_idx, x_idx) :: !windows;
          (* Lemma 19: returned view = contents of M at L. *)
          let at_l = Array.make m Value.Bot in
          List.iter
            (fun item ->
              match item with
              | U u when u.u_lin < l_idx -> at_l.(u.u_comp) <- u.u_value
              | _ -> ())
            order;
          if not (Array.for_all2 Value.equal at_l view) then
            err
              "Lemma 19: atomic Block-Update by q%d (ts %s): returned view \
               differs from M at L=%d"
              proc (Vts.show ts) l_idx;
          (* Lemma 17: no Scan linearized in (L, X). *)
          List.iter
            (function
              | Aug.Scan_op { proc = sp; end_idx = sidx; _ } ->
                if sidx > l_idx && sidx < x_idx then
                  err
                    "Lemma 17: Scan by q%d linearized at %d inside window \
                     (%d, %d) of q%d"
                    sp sidx l_idx x_idx proc
              | Aug.Bu_op _ -> ())
            log;
          (* Lemma 19: only Updates of non-atomic Block-Updates by other
             processes linearize strictly inside the window. *)
          List.iter
            (fun u ->
              if u.u_lin > l_idx && u.u_lin < x_idx then
                match u.u_kind with
                | Atomic_bu ->
                  err
                    "Lemma 19: update by q%d (atomic BU) linearized at %d \
                     inside window (%d, %d) of q%d"
                    u.u_writer u.u_lin l_idx x_idx proc
                | Yield_bu | Incomplete_bu ->
                  if u.u_writer = proc then
                    err
                      "Lemma 19: update by the window owner q%d linearized \
                       inside its own window (%d, %d)"
                      proc l_idx x_idx)
            updates)
      | Aug.Bu_op _ | Aug.Scan_op _ -> ())
    log;
  (* Lemma 18: windows pairwise disjoint. *)
  let rec pairs = function
    | [] -> ()
    | (p1, t1, l1, x1) :: rest ->
      List.iter
        (fun (p2, t2, l2, x2) ->
          let overlap = l1 < x2 && l2 < x1 in
          if overlap && not (x1 = x2 && p1 = p2 && Vts.equal t1 t2) then
            err "Lemma 18: windows (%d,%d] of q%d and (%d,%d] of q%d intersect"
              l1 x1 p1 l2 x2 p2)
        rest;
      pairs rest
  in
  pairs !windows;

  (* ---- Theorem 20 and Lemma 2. ---- *)
  let triple_appends_between ~lo ~hi ~pred =
    List.filter
      (fun (e : Aug.Prog.trace_entry) ->
        e.idx > lo && e.idx < hi && Aug.Ops.appends_triples e.op && pred e.pid)
      trace
  in
  List.iter
    (function
      | Aug.Bu_op { proc; ts; start_idx; end_idx; n_ops; result; _ } ->
        if n_ops > 6 then
          err "Lemma 2: Block-Update by q%d took %d > 6 steps" proc n_ops;
        (match result with
        | Aug.Yield ->
          if proc = 0 then
            err "Theorem 20: q0's Block-Update (ts %s) returned Y" (Vts.show ts);
          if
            triple_appends_between ~lo:start_idx ~hi:end_idx ~pred:(fun p ->
                p < proc)
            = []
          then
            err
              "Theorem 20: Block-Update by q%d (ts %s) yielded without a \
               lower-id update in its interval (%d, %d)"
              proc (Vts.show ts) start_idx end_idx
        | Aug.Atomic _ -> ())
      | Aug.Scan_op { proc; start_idx; end_idx; n_ops; _ } ->
        let k =
          List.length
            (triple_appends_between ~lo:start_idx ~hi:end_idx ~pred:(fun p ->
                 p <> proc))
        in
        if n_ops > (2 * k) + 3 then
          err "Lemma 2: Scan by q%d took %d > 2k+3 = %d steps" proc n_ops
            ((2 * k) + 3))
    log;

  let stats =
    {
      n_scans =
        List.length
          (List.filter (function Aug.Scan_op _ -> true | _ -> false) log);
      n_bus =
        List.length (List.filter (function Aug.Bu_op _ -> true | _ -> false) log);
      n_atomic =
        List.length
          (List.filter
             (function
               | Aug.Bu_op { result = Aug.Atomic _; _ } -> true | _ -> false)
             log);
      n_yield =
        List.length
          (List.filter
             (function Aug.Bu_op { result = Aug.Yield; _ } -> true | _ -> false)
             log);
      n_incomplete_bus = !n_incomplete;
      max_scan_ops =
        List.fold_left
          (fun acc -> function Aug.Scan_op { n_ops; _ } -> max acc n_ops | _ -> acc)
          0 log;
      max_bu_ops =
        List.fold_left
          (fun acc -> function Aug.Bu_op { n_ops; _ } -> max acc n_ops | _ -> acc)
          0 log;
    }
  in
  { ok = !errors = []; errors = List.rev !errors; stats }
