open Rsim_value

(* ---------------------------------------------------------------- *)
(* The trace index (§3.3)                                            *)
(* ---------------------------------------------------------------- *)

type update = {
  u_id : int;
  u_writer : int;
  u_ts : Vts.t;
  u_comp : int;
  u_value : Value.t;
  u_x_idx : int;
  u_lin : int;
  u_g : int;
  u_inv : int;
  mutable u_bu : int;
}

type scan = { s_log : int; s_proc : int; s_view : Value.t array; s_end : int }

type index = {
  m : int;  (* components of M *)
  trace : Aug.Prog.trace_entry array;  (* entry [k] has index [k] *)
  log : Aug.mop array;  (* [Aug.log], in completion order *)
  updates : update array;
      (* every Update, in trace order, including those of Block-Updates
         that executed X but never completed *)
  app_start : int array;
      (* the Line-4 appends, in trace order: append [a] holds
         [updates.(app_start.(a) .. app_start.(a + 1) - 1)] *)
  by_key : int array;
      (* the appends by (timestamp, writer), ties in trace order *)
  order : update array;  (* by (u_lin, u_ts, u_comp), ties in trace order *)
  by_end : scan array;
      (* the completed Scans by [s_end], ties in log order ([s_log]) *)
}

(* Stable in-place insertion sort. Every array sorted here is nearly in
   order already: an Update linearizes at or before its own append,
   timestamps grow along the trace (Corollary 8), and Scans complete at
   their final [H.scan]. *)
let insertion_sort cmp a =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The least [i] in [0, n) with [above i], or [n]; [above] is monotone. *)
let first_above n above =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if above mid then go lo mid else go (mid + 1) hi
  in
  go 0 n

let compare_key ts writer (u : update) =
  let c = Vts.compare ts u.u_ts in
  if c <> 0 then c else Int.compare writer u.u_writer

(* The first Update of append [a]. An append's key (timestamp, writer)
   is its first triple's, which all its triples share (Line 3 makes one
   timestamp per Block-Update). *)
let first_update ix a = ix.updates.(ix.app_start.(a))

(* [f u] for every Update whose append has key [(ts, writer)], in trace
   order: the Updates of the Block-Update [(writer, ts)]. *)
let iter_bu_updates ix ~writer ~ts f =
  let key = first_update ix and by_key = ix.by_key in
  let n = Array.length by_key in
  let k = ref (first_above n (fun k -> compare_key ts writer (key by_key.(k)) <= 0)) in
  while !k < n && compare_key ts writer (key by_key.(!k)) = 0 do
    let a = by_key.(!k) in
    for i = ix.app_start.(a) to ix.app_start.(a + 1) - 1 do
      f ix.updates.(i)
    done;
    incr k
  done

let index aug trace =
  let m = Aug.m aug in
  (* The interpreter numbers operations densely: entry [k] has [idx = k]. *)
  let trace = Array.of_list trace in
  let log = Array.of_list (Aug.log aug) in
  (* The linearization point of an Update (j, t) is the first trace index
     at which H contains a triple for component j with timestamp ≽ t.
     [records.(j)], newest first, holds each index at which the largest
     timestamp appended to j grew, with that timestamp; an Update's own
     append is among them, so its point is always found. *)
  let records = Array.make m [] in
  let rec first_reaching ts lin = function
    | (idx, top) :: rest when Vts.geq top ts -> first_reaching ts idx rest
    | _ -> lin
  in
  (* Each process's latest [H.scan]: before an append, its Line-2 scan. *)
  let last_scan = Array.make (Aug.f aug) (-1) in
  let rev_updates = ref [] and n_updates = ref 0 and rev_starts = ref [] in
  Array.iter
    (fun (e : Aug.Prog.trace_entry) ->
      match e.op with
      | Aug.Ops.Hscan -> last_scan.(e.pid) <- e.idx
      | Aug.Ops.Happend_triples (_ :: _ as triples) ->
        rev_starts := !n_updates :: !rev_starts;
        let inv = if last_scan.(e.pid) < 0 then e.idx else last_scan.(e.pid) in
        List.iteri
          (fun g (tr : Hrep.triple) ->
            let j = tr.comp in
            (match records.(j) with
            | (_, top) :: _ when Vts.geq top tr.ts -> ()
            | _ -> records.(j) <- (e.idx, tr.ts) :: records.(j));
            rev_updates :=
              {
                u_id = !n_updates;
                u_comp = j;
                u_value = tr.value;
                u_ts = tr.ts;
                u_writer = e.pid;
                u_x_idx = e.idx;
                u_lin = first_reaching tr.ts e.idx records.(j);
                u_g = g;
                u_inv = inv;
                u_bu = -1;
              }
              :: !rev_updates;
            incr n_updates)
          triples
      | Aug.Ops.Happend_triples [] | Aug.Ops.Happend_lrecords _ -> ())
    trace;
  let updates = Array.of_list (List.rev !rev_updates) in
  let app_start = Array.of_list (List.rev (!n_updates :: !rev_starts)) in
  let key a = updates.(app_start.(a)) in
  let by_key = Array.init (Array.length app_start - 1) Fun.id in
  insertion_sort
    (fun a b -> compare_key (key a).u_ts (key a).u_writer (key b))
    by_key;
  let order = Array.copy updates in
  insertion_sort
    (fun a b ->
      let c = Int.compare a.u_lin b.u_lin in
      if c <> 0 then c
      else
        let c = Vts.compare a.u_ts b.u_ts in
        if c <> 0 then c else Int.compare a.u_comp b.u_comp)
    order;
  let rev_scans = ref [] and n_scans = ref 0 in
  Array.iter
    (function
      | Aug.Bu_op _ -> ()
      | Aug.Scan_op { proc; view; end_idx; _ } ->
        rev_scans :=
          { s_log = !n_scans; s_proc = proc; s_view = view; s_end = end_idx }
          :: !rev_scans;
        incr n_scans)
    log;
  let by_end = Array.of_list (List.rev !rev_scans) in
  insertion_sort (fun a b -> Int.compare a.s_end b.s_end) by_end;
  let ix = { m; trace; log; updates; app_start; by_key; order; by_end } in
  (* Classify each Update by its Block-Update [(pid, ts)], the latest
     completed one in log order winning. *)
  Array.iteri
    (fun p -> function
      | Aug.Bu_op { proc; ts; _ } ->
        iter_bu_updates ix ~writer:proc ~ts (fun u -> u.u_bu <- p)
      | Aug.Scan_op _ -> ())
    log;
  ix

(* Whether [u]'s completed Block-Update returned [Atomic]. *)
let is_atomic ix u =
  u.u_bu >= 0
  &&
  match ix.log.(u.u_bu) with
  | Aug.Bu_op { result = Aug.Atomic _; _ } -> true
  | Aug.Bu_op { result = Aug.Yield; _ } | Aug.Scan_op _ -> false

(* Walk the linearization: Updates in [order], each Scan after every
   Update linearized at or before its index (§3.3). *)
let iter_lin ix ~update ~scan =
  let us = ix.order and ss = ix.by_end in
  let rec go i j =
    if i < Array.length us && (j >= Array.length ss || us.(i).u_lin <= ss.(j).s_end)
    then begin
      update us.(i);
      go (i + 1) j
    end
    else if j < Array.length ss then begin
      scan ss.(j);
      go i (j + 1)
    end
  in
  go 0 0

(* The Updates are in trace order, so those appended inside (lo, hi)
   are one run of them. *)
let iter_appended ix ~lo ~hi f =
  let us = ix.updates in
  let i = ref (first_above (Array.length us) (fun i -> us.(i).u_x_idx > lo)) in
  while !i < Array.length us && us.(!i).u_x_idx < hi do
    f us.(!i);
    incr i
  done

let iter_pending ix f = Array.iter (fun u -> if u.u_bu < 0 then f u) ix.updates

(* The paper's scan-result equality is over update triples (the prefix
   relation of Observation 1), so "the last scan that returns ℓ" means
   the last scan whose result is triple-equal to ℓ. H's triples are
   append-only, so per-component triple counts identify the state. *)
let same_triple_counts (s : Hrep.snap) (last : Hrep.snap) =
  let n = Array.length s in
  let rec from j =
    j = n
    || s.(j).Hrep.n_triples = last.(j).Hrep.n_triples
       && from (j + 1)
  in
  n = Array.length last && from 0

(* Walk back from [x_idx - 1] to the first matching scan. *)
let window_start ix ~last ~x_idx =
  let trace = ix.trace in
  let rec back k =
    if k < 0 then None
    else
      match (trace.(k).op, trace.(k).res) with
      | Aug.Ops.Hscan, Aug.Ops.Snap s when same_triple_counts s last -> Some k
      | _ -> back (k - 1)
  in
  back (min (x_idx - 1) (Array.length trace - 1))

(* ---------------------------------------------------------------- *)
(* The checker                                                       *)
(* ---------------------------------------------------------------- *)

type stats = {
  n_scans : int;
  n_bus : int;
  n_atomic : int;
  n_yield : int;
  n_incomplete_bus : int;
  max_scan_ops : int;
  max_bu_ops : int;
}

type report = { ok : bool; errors : string list; stats : stats }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ok=%b scans=%d bus=%d (atomic=%d yield=%d incomplete=%d)@,errors:@,%a@]"
    r.ok r.stats.n_scans r.stats.n_bus r.stats.n_atomic r.stats.n_yield
    r.stats.n_incomplete_bus
    (Format.pp_print_list Format.pp_print_string)
    r.errors

(* An atomic Block-Update's window (L, X], with L as [window_start]
   finds it ([-1] when it cannot) and whether its view is M at L. *)
type window = {
  w_proc : int;
  w_ts : Vts.t;
  w_start : int;
  w_x : int;
  w_view : Value.t array;
  w_l : int;
  mutable w_view_ok : bool;
}

let report ix =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let by_key = ix.by_key in
  let n_apps = Array.length by_key in
  let first_update = first_update ix in

  (* Lemma 9: timestamps of distinct Block-Updates are distinct. The
     first writer of a timestamp, in trace order, owns it; every Update
     of another writer with that timestamp is reported. *)
  let owner = Array.make n_apps (-1) in
  let k = ref 0 in
  while !k < n_apps do
    let ts = (first_update by_key.(!k)).u_ts in
    let hi = ref !k and first = ref by_key.(!k) in
    while !hi < n_apps && Vts.equal (first_update by_key.(!hi)).u_ts ts do
      first := min !first by_key.(!hi);
      incr hi
    done;
    for g = !k to !hi - 1 do
      owner.(by_key.(g)) <- (first_update !first).u_writer
    done;
    k := !hi
  done;
  for a = 0 to n_apps - 1 do
    let u = first_update a in
    if owner.(a) <> u.u_writer then
      for _ = ix.app_start.(a) to ix.app_start.(a + 1) - 1 do
        err "Lemma 9: timestamp %s used by both q%d and q%d" (Vts.show u.u_ts)
          owner.(a) u.u_writer
      done
  done;

  (* Each atomic Block-Update's L, located before the replay so that the
     replay can take M at L. *)
  let windows =
    Array.of_list
      (Array.fold_right
         (fun mop ws ->
           match mop with
           | Aug.Bu_op
               { proc; ts; x_idx; start_idx; result = Aug.Atomic { view; last }; _ }
             ->
             {
               w_proc = proc;
               w_ts = ts;
               w_start = start_idx;
               w_x = x_idx;
               w_view = view;
               w_l = Option.value ~default:(-1) (window_start ix ~last ~x_idx);
               w_view_ok = true;
             }
             :: ws
           | Aug.Bu_op _ | Aug.Scan_op _ -> ws)
         ix.log [])
  in
  let by_l = Array.copy windows in
  insertion_sort (fun a b -> Int.compare a.w_l b.w_l) by_l;

  (* Corollary 15: replay M along the linearization; every Scan's view
     must match. The same replay numbers the linearization and takes M
     at each window's L (Lemma 19): the Updates linearized before L. *)
  let contents = Array.make ix.m Value.Bot in
  (* each Update's position in the linearization, by [u_id] *)
  let pos = Array.make (Array.length ix.updates) 0 in
  let n_lin = ref 0 and next_l = ref 0 in
  let take_m_at_l upto =
    while !next_l < Array.length by_l && by_l.(!next_l).w_l <= upto do
      let w = by_l.(!next_l) in
      w.w_view_ok <- Array.for_all2 Value.equal contents w.w_view;
      incr next_l
    done
  in
  iter_lin ix
    ~update:(fun u ->
      take_m_at_l u.u_lin;
      contents.(u.u_comp) <- u.u_value;
      pos.(u.u_id) <- !n_lin;
      incr n_lin)
    ~scan:(fun s ->
      if not (Array.for_all2 Value.equal contents s.s_view) then
        err "Corollary 15: Scan by q%d at idx %d returned a stale view" s.s_proc
          s.s_end;
      incr n_lin);
  take_m_at_l max_int;

  (* Lemma 11 / Lemma 12. *)
  Array.iter
    (function
      | Aug.Bu_op { proc; ts; x_idx; start_idx; result; _ } ->
        iter_bu_updates ix ~writer:proc ~ts (fun u ->
            match result with
            | Aug.Atomic _ ->
              if u.u_lin <> x_idx then
                err
                  "Lemma 11: atomic Block-Update by q%d (ts %s): update to %d \
                   linearized at %d, not at X=%d"
                  proc (Vts.show ts) u.u_comp u.u_lin x_idx
            | Aug.Yield ->
              if not (u.u_lin > start_idx && u.u_lin <= x_idx) then
                err
                  "Lemma 12: yield Block-Update by q%d (ts %s): update to %d \
                   linearized at %d outside (%d, %d]"
                  proc (Vts.show ts) u.u_comp u.u_lin start_idx x_idx)
      | Aug.Scan_op _ -> ())
    ix.log;

  (* Lemma 11 contiguity: in the final order, the updates of each atomic
     Block-Update appear consecutively. *)
  Array.iter
    (fun w ->
      let positions = ref [] in
      iter_bu_updates ix ~writer:w.w_proc ~ts:w.w_ts (fun u ->
          positions := pos.(u.u_id) :: !positions);
      match List.sort Int.compare !positions with
      | [] -> ()
      | first :: _ as ps ->
        List.iteri
          (fun k p ->
            if p <> first + k then
              err
                "Lemma 11: updates of atomic Block-Update by q%d (ts %s) are \
                 not consecutive in the linearization"
                w.w_proc (Vts.show w.w_ts))
          ps)
    windows;

  (* ---- Windows (Lemmas 16-19). ---- *)
  let located = ref [] in
  Array.iter
    (fun w ->
      let proc = w.w_proc and l_idx = w.w_l and x_idx = w.w_x in
      if l_idx < 0 then
        err "Lemma 16: atomic Block-Update by q%d (ts %s): cannot locate L" proc
          (Vts.show w.w_ts)
      else begin
        if l_idx < w.w_start then
          err
            "Lemma 16: atomic Block-Update by q%d (ts %s): L=%d before its \
             first scan %d"
            proc (Vts.show w.w_ts) l_idx w.w_start;
        located := w :: !located;
        if not w.w_view_ok then
          err
            "Lemma 19: atomic Block-Update by q%d (ts %s): returned view \
             differs from M at L=%d"
            proc (Vts.show w.w_ts) l_idx;
        (* Lemma 17: no Scan linearized in (L, X), reported in log order. *)
        let inside = ref [] in
        let ss = ix.by_end in
        let j = ref (first_above (Array.length ss) (fun j -> ss.(j).s_end > l_idx)) in
        while !j < Array.length ss && ss.(!j).s_end < x_idx do
          inside := ss.(!j) :: !inside;
          incr j
        done;
        List.iter
          (fun s ->
            err "Lemma 17: Scan by q%d linearized at %d inside window (%d, %d) of q%d"
              s.s_proc s.s_end l_idx x_idx proc)
          (List.sort (fun a b -> Int.compare a.s_log b.s_log) !inside);
        (* Lemma 19: only Updates of non-atomic Block-Updates by other
           processes linearize strictly inside the window; reported in
           trace order. *)
        let bad = ref [] in
        let us = ix.order in
        let i = ref (first_above (Array.length us) (fun i -> us.(i).u_lin > l_idx)) in
        while !i < Array.length us && us.(!i).u_lin < x_idx do
          let u = us.(!i) in
          if is_atomic ix u || u.u_writer = proc then bad := u :: !bad;
          incr i
        done;
        List.iter
          (fun u ->
            if is_atomic ix u then
              err
                "Lemma 19: update by q%d (atomic BU) linearized at %d inside \
                 window (%d, %d) of q%d"
                u.u_writer u.u_lin l_idx x_idx proc
            else
              err
                "Lemma 19: update by the window owner q%d linearized inside its \
                 own window (%d, %d)"
                proc l_idx x_idx)
          (List.sort (fun a b -> Int.compare a.u_id b.u_id) !bad)
      end)
    windows;
  (* Lemma 18: windows pairwise disjoint. *)
  let rec pairs = function
    | [] -> ()
    | w1 :: rest ->
      List.iter
        (fun w2 ->
          let overlap = w1.w_l < w2.w_x && w2.w_l < w1.w_x in
          if
            overlap
            && not
                 (w1.w_x = w2.w_x && w1.w_proc = w2.w_proc && Vts.equal w1.w_ts w2.w_ts)
          then
            err "Lemma 18: windows (%d,%d] of q%d and (%d,%d] of q%d intersect"
              w1.w_l w1.w_x w1.w_proc w2.w_l w2.w_x w2.w_proc)
        rest;
      pairs rest
  in
  pairs !located;

  (* ---- Theorem 20 and Lemma 2, and the stats, in one log pass. ---- *)
  (* Triple appends by a [pred] process strictly inside [(lo, hi)],
     counted up to [limit]: the appends are in trace order. *)
  let triple_appends_between ?(limit = max_int) ~lo ~hi ~pred () =
    let rec count a n =
      if a >= n_apps || n >= limit then n
      else
        let u = first_update a in
        if u.u_x_idx >= hi then n
        else count (a + 1) (if pred u.u_writer then n + 1 else n)
    in
    count (first_above n_apps (fun a -> (first_update a).u_x_idx > lo)) 0
  in
  let n_scans = ref 0 and n_bus = ref 0 and n_atomic = ref 0 and n_yield = ref 0 in
  let max_scan_ops = ref 0 and max_bu_ops = ref 0 in
  Array.iter
    (function
      | Aug.Bu_op { proc; ts; start_idx; end_idx; n_ops; result; _ } ->
        incr n_bus;
        max_bu_ops := max !max_bu_ops n_ops;
        if n_ops > 6 then
          err "Lemma 2: Block-Update by q%d took %d > 6 steps" proc n_ops;
        (match result with
        | Aug.Yield ->
          incr n_yield;
          if proc = 0 then
            err "Theorem 20: q0's Block-Update (ts %s) returned Y" (Vts.show ts);
          if
            triple_appends_between ~limit:1 ~lo:start_idx ~hi:end_idx
              ~pred:(fun p -> p < proc)
              ()
            = 0
          then
            err
              "Theorem 20: Block-Update by q%d (ts %s) yielded without a \
               lower-id update in its interval (%d, %d)"
              proc (Vts.show ts) start_idx end_idx
        | Aug.Atomic _ -> incr n_atomic)
      | Aug.Scan_op { proc; start_idx; end_idx; n_ops; _ } ->
        incr n_scans;
        max_scan_ops := max !max_scan_ops n_ops;
        let k =
          triple_appends_between ~lo:start_idx ~hi:end_idx
            ~pred:(fun p -> p <> proc)
            ()
        in
        if n_ops > (2 * k) + 3 then
          err "Lemma 2: Scan by q%d took %d > 2k+3 = %d steps" proc n_ops
            ((2 * k) + 3))
    ix.log;
  let n_incomplete = ref 0 in
  for a = 0 to n_apps - 1 do
    if (first_update a).u_bu < 0 then incr n_incomplete
  done;
  let stats =
    {
      n_scans = !n_scans;
      n_bus = !n_bus;
      n_atomic = !n_atomic;
      n_yield = !n_yield;
      n_incomplete_bus = !n_incomplete;
      max_scan_ops = !max_scan_ops;
      max_bu_ops = !max_bu_ops;
    }
  in
  { ok = !errors = []; errors = List.rev !errors; stats }

let check aug trace = report (index aug trace)
