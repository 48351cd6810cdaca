(* The race oracle as it was before it judged by trace-index order: the
   happens-before vector-clock kit (formerly lib/runtime/hb.ml) and
   [race_errors] as [Explore.Aug_target] ran it, both kept verbatim as
   the reference that the equivalence test in test_explore.ml compares
   the index-order oracle against. *)

module Aug = Rsim_augmented.Aug
module Hrep = Rsim_augmented.Hrep

module Hb = struct
  (* Happens-before machinery: per-fiber vector clocks joined on shared-
     location reads/writes, plus control-boundary (fault-plane) events.

     The runtime linearizes every base-object operation, so the trace's
     index order already embeds one valid happens-before order. What the
     vector clocks add is the *per-location* view: a fiber's clock only
     advances past another fiber's events when it actually read a location
     the other fiber published, so "q observed p's write" becomes a
     machine-checkable pointwise comparison instead of an argument about
     scan contents. The explore engine's race oracle is built on this
     module. *)

  type clock = int array

  module Clock = struct
    let make n : clock = Array.make n 0
    let copy : clock -> clock = Array.copy

    let tick (c : clock) p = c.(p) <- c.(p) + 1

    let join ~(into : clock) (c : clock) =
      for i = 0 to Array.length into - 1 do
        if c.(i) > into.(i) then into.(i) <- c.(i)
      done

    let leq (a : clock) (b : clock) =
      let n = Array.length a in
      let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
      go 0

    let concurrent a b = (not (leq a b)) && not (leq b a)

    let show (c : clock) =
      "<"
      ^ String.concat ","
          (Array.to_list (Array.map string_of_int c))
      ^ ">"
  end

  module Tracker = struct
    type t = {
      procs : int;
      clocks : clock array;  (* one clock per fiber, dimension [procs] *)
      published : clock option array;  (* last write's stamp, per location *)
    }

    let create ~procs ~locs =
      {
        procs;
        clocks = Array.init procs (fun _ -> Clock.make procs);
        published = Array.make locs None;
      }

    let procs t = t.procs

    let step t ~pid = Clock.tick t.clocks.(pid) pid

    let write t ~pid ~loc =
      Clock.tick t.clocks.(pid) pid;
      t.published.(loc) <- Some (Clock.copy t.clocks.(pid))

    let read t ~pid ~loc =
      match t.published.(loc) with
      | None -> ()
      | Some c -> Clock.join ~into:t.clocks.(pid) c

    let read_all t ~pid =
      Clock.tick t.clocks.(pid) pid;
      Array.iter
        (function
          | None -> ()
          | Some c -> Clock.join ~into:t.clocks.(pid) c)
        t.published

    (* A ~control boundary event (crash, restart): the fiber's
       local state may be lost, but its place in the happens-before order
       persists — an incarnation edge, modeled as a plain local tick so
       pre-crash events stay ordered before post-restart ones. *)
    let boundary t ~pid = Clock.tick t.clocks.(pid) pid

    let stamp t ~pid = Clock.copy t.clocks.(pid)
  end
end

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
let race_errors aug (result : Aug.Prog.result) =
  let f = Array.length result.Aug.Prog.statuses in
  let t = Hb.Tracker.create ~procs:f ~locs:f in
  (* Fault events, grouped by the operation count at which they
     fired: ticked just before the trace entry with that index. *)
  let boundaries = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let pid, at =
        match ev with
        | Rsim_runtime.Prog.Ev_crash { pid; at; _ }
        | Rsim_runtime.Prog.Ev_restart { pid; at; _ }
        | Rsim_runtime.Prog.Ev_replace { pid; at } -> (pid, at)
      in
      Hashtbl.add boundaries at pid)
    result.Aug.Prog.events;
  let stamps = Hashtbl.create 64 in
  List.iter
    (fun (e : Aug.Prog.trace_entry) ->
      List.iter
        (fun pid -> Hb.Tracker.boundary t ~pid)
        (Hashtbl.find_all boundaries e.idx);
      (match e.op with
      | Aug.Ops.Hscan -> Hb.Tracker.read_all t ~pid:e.pid
      | Aug.Ops.Happend_triples _ | Aug.Ops.Happend_lrecords _ ->
        Hb.Tracker.write t ~pid:e.pid ~loc:e.pid);
      Hashtbl.replace stamps e.idx (Hb.Tracker.stamp t ~pid:e.pid))
    result.Aug.Prog.trace;
  let appends =
    List.filter_map
      (fun (e : Aug.Prog.trace_entry) ->
        match e.op with
        | Aug.Ops.Happend_triples ts ->
          Some
            ( e.idx,
              e.pid,
              List.map (fun (tr : Hrep.triple) -> tr.Hrep.comp) ts )
        | Aug.Ops.Hscan | Aug.Ops.Happend_lrecords _ -> None)
      result.Aug.Prog.trace
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
