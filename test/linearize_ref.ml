(* The Wing-Gong oracle as it was before the bitmask search: the
   list-based [linearization] (formerly lib/shmem/linearize.ml) and the
   hash-table [mop_history] that [Explore] built its histories with,
   both kept verbatim as the references that the equivalence tests in
   test_linearize.ml and test_explore.ml compare against. The entry and
   spec types are {!Rsim_shmem.Linearize}'s, which did not change. *)

open Rsim_value
open Rsim_shmem
module Aug = Rsim_augmented.Aug
module Hrep = Rsim_augmented.Hrep
module Vts = Rsim_augmented.Vts

open Linearize

(* [e] may be linearized first among [remaining] iff no other operation
   completed before [e] was invoked. *)
let minimal remaining e =
  List.for_all
    (fun e' ->
      e' == e
      || match e'.ret with None -> true | Some r -> r > e.inv)
    remaining

let rec remove_phys x = function
  | [] -> []
  | y :: ys -> if x == y then ys else y :: remove_phys x ys

let linearization spec entries =
  let rec search st remaining acc =
    match remaining with
    | [] -> Some (List.rev acc)
    | _ ->
      let candidates = List.filter (minimal remaining) remaining in
      let try_take e =
        (* A raising [apply] means the operation is not applicable in this
           state; the search must linearize it elsewhere (or, if pending,
           drop it). *)
        match spec.apply st e.op with
        | exception _ -> None
        | st', res ->
          let response_ok =
            match (e.ret, e.res) with
            | Some _, Some observed -> Value.equal observed res
            | Some _, None -> true
            | None, _ -> true (* pending: any response is acceptable *)
          in
          if response_ok then search st' (remove_phys e remaining) (e :: acc)
          else None
      in
      let try_drop e =
        (* Pending operations may never have taken effect. *)
        match e.ret with
        | None -> search st (remove_phys e remaining) acc
        | Some _ -> None
      in
      let rec first_some f = function
        | [] -> None
        | x :: xs -> (
          match f x with Some r -> Some r | None -> first_some f xs)
      in
      (match first_some try_take candidates with
      | Some r -> Some r
      | None -> first_some try_drop candidates)
  in
  search spec.init entries []

let check spec entries = Option.is_some (linearization spec entries)

(* For the comparisons: the same witness is the same entries, physically,
   in the same order. *)
let same_witness a b =
  match (a, b) with
  | None, None -> true
  | Some xs, Some ys ->
    List.compare_lengths xs ys = 0 && List.for_all2 ( == ) xs ys
  | Some _, None | None, Some _ -> false

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

let mop_history aug (trace : Aug.Prog.trace_entry list) =
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
    (fun (e : Aug.Prog.trace_entry) ->
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
