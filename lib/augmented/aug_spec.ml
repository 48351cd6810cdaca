open Rsim_value

module Mop = struct
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
end

open Mop

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
}

type scan = { s_log : int; s_proc : int; s_view : Value.t array; s_end : int }

(* The [H.scan]s so far, latest first. *)
type hscans =
  | No_hscan
  | Hscan of { idx : int; pid : int; snap : Hrep.snap; before : hscans }

(* A completed Block-Update, as its timestamp's entry records it. *)
type completed = { c_writer : int; c_log : int; c_atomic : bool }

(* What the index knows of one timestamp: the Line-4 appends that carry
   it, latest first, each one's Updates in triple order, and the
   completed Block-Updates that carry it, latest first. An append's key
   (timestamp, writer) is its first triple's, which all its triples
   share (Line 3 makes one timestamp per Block-Update). *)
type stamp = {
  st_ts : Vts.t;
  st_apps : update list list;
  st_done : completed list;
}

(* An atomic Block-Update's window (L, X], with L as [window_start]
   finds it ([-1] when it cannot). *)
type window = {
  w_proc : int;
  w_ts : Vts.t;
  w_start : int;
  w_x : int;
  w_view : Value.t array;
  w_l : int;
}

(* The verdicts settled when an operation completed, latest first; a
   new record only when one of them changes. *)
type settled = {
  lemma9 : string list;
  lemma11_12 : string list;
  lemma2_thm20 : string list;
  rejudge : bool;
      (* an append carries the key of a Block-Update that already
         completed, so that one's settled Lemma 11/12 verdict is stale *)
}

(* What changes only at a triple append or an M-operation's completion.
   Lists are latest first. *)
type core = {
  m : int;  (* components of M *)
  ups : update list;  (* every Update, by trace position *)
  apps : update list;  (* the first Update of each triple append *)
  order : update list;
      (* the Updates by (u_lin, u_ts, u_comp), ties in trace order *)
  records : (int * Vts.t) list array;
      (* per component, each index at which the largest timestamp
         appended to it grew, with that timestamp *)
  stamps : stamp list;
      (* by timestamp, largest first: nearly the order of the appends,
         since a new timestamp exceeds every one its Line-2 scan saw
         (Corollary 8), so the walks below stop early *)
  scans : scan list;  (* the completed Scans by (s_end, s_log) *)
  windows : window list;  (* the atomic Block-Updates, by log position *)
  rev_log : mop list;
  n_log : int;
  n_scans : int;
  n_pending_apps : int;  (* appends no completed Block-Update owns *)
  settled : settled;
}

(* The H.scans change on most hops and sit outside [core], so that such
   a hop allocates a record of two fields and a link. *)
type index = { hscans : hscans; core : core }

let start ~m =
  {
    hscans = No_hscan;
    core =
      {
        m;
        ups = [];
        apps = [];
        order = [];
        records = Array.make m [];
        stamps = [];
        scans = [];
        windows = [];
        rev_log = [];
        n_log = 0;
        n_scans = 0;
        n_pending_apps = 0;
        settled =
          { lemma9 = []; lemma11_12 = []; lemma2_thm20 = []; rejudge = false };
      };
  }

let n_ups c = match c.ups with u :: _ -> u.u_id + 1 | [] -> 0

let rec find_stamp ts = function
  | st :: older ->
    let o = Vts.compare st.st_ts ts in
    if o > 0 then find_stamp ts older
    else if o = 0 then st
    else { st_ts = ts; st_apps = []; st_done = [] }
  | [] -> { st_ts = ts; st_apps = []; st_done = [] }

let stamp_of c ts = find_stamp ts c.stamps

(* [stamps] with [st] in place of the entry of its timestamp. *)
let rec put st = function
  | s :: older ->
    let o = Vts.compare s.st_ts st.st_ts in
    if o > 0 then s :: put st older
    else if o = 0 then st :: older
    else st :: s :: older
  | [] -> [ st ]

let rec last_scan_by pid = function
  | No_hscan -> -1
  | Hscan h -> if h.pid = pid then h.idx else last_scan_by pid h.before

(* The linearization order: [a] before [b]. *)
let lin_before a b =
  a.u_lin < b.u_lin
  || a.u_lin = b.u_lin
     &&
     let c = Vts.compare a.u_ts b.u_ts in
     c < 0 || (c = 0 && a.u_comp < b.u_comp)

(* [u], the latest Update by trace position, into [order]: after every
   Update it does not precede. An Update rarely linearizes before its
   own append, so the walk is short. *)
let rec insert_lin u = function
  | v :: rest when lin_before u v -> v :: insert_lin u rest
  | order -> u :: order

let rec insert_scan s = function
  | t :: rest when t.s_end > s.s_end -> t :: insert_scan s rest
  | scans -> s :: scans

(* The oldest append's writer, or [default] when there is none. *)
let rec owner default = function
  | [] -> default
  | [ u :: _ ] -> u.u_writer
  | _ :: older -> owner default older

(* The linearization point of an Update (j, t) is the first trace index
   at which H contains a triple for component j with timestamp ≽ t: the
   oldest of the latest records whose timestamp is ≽ t. An Update's own
   append is among them, so its point is always found. *)
let rec first_reaching ts lin = function
  | (idx, top) :: rest when Vts.geq top ts -> first_reaching ts idx rest
  | _ -> lin

(* The latest of [dones] by [writer]; [c_log = -1] when there is none. *)
let rec done_by writer = function
  | [] -> { c_writer = writer; c_log = -1; c_atomic = false }
  | d :: older -> if d.c_writer = writer then d else done_by writer older

(* One triple append by [pid] at [idx]: its Updates, their points, and
   its Lemma 9 verdict. *)
let append ix ~idx ~pid (first : Hrep.triple) triples =
  let c = ix.core in
  let ts = first.ts in
  let stamp = stamp_of c ts in
  (* Lemma 9: the first writer of a timestamp owns it; each Update of
     another writer with that timestamp is reported. *)
  let own = owner pid stamp.st_apps in
  let owned = (done_by pid stamp.st_done).c_log >= 0 in
  let settled =
    let s = c.settled in
    if own = pid && not owned then s
    else
      {
        s with
        lemma9 =
          (if own = pid then s.lemma9
           else
             List.fold_left
               (fun errs _ ->
                 Printf.sprintf "Lemma 9: timestamp %s used by both q%d and q%d"
                   (Vts.show ts) own pid
                 :: errs)
               s.lemma9 triples);
        rejudge = s.rejudge || owned;
      }
  in
  (* Before an append, the writer's latest [H.scan] is its Line-2 scan. *)
  let inv = match last_scan_by pid ix.hscans with -1 -> idx | s -> s in
  let records = Array.copy c.records in
  let rec add g n mine ups order = function
    | [] -> (List.rev mine, ups, order)
    | (tr : Hrep.triple) :: rest ->
      let j = tr.comp in
      (match records.(j) with
      | (_, top) :: _ when Vts.geq top tr.ts -> ()
      | _ -> records.(j) <- (idx, tr.ts) :: records.(j));
      let u =
        {
          u_id = n;
          u_writer = pid;
          u_ts = tr.ts;
          u_comp = j;
          u_value = tr.value;
          u_x_idx = idx;
          u_lin = first_reaching tr.ts idx records.(j);
          u_g = g;
          u_inv = inv;
        }
      in
      add (g + 1) (n + 1) (u :: mine) (u :: ups) (insert_lin u order) rest
  in
  let mine, ups, order = add 0 (n_ups c) [] c.ups c.order triples in
  {
    ix with
    core =
      {
        c with
        ups;
        apps = (match mine with u :: _ -> u :: c.apps | [] -> c.apps);
        order;
        records;
        stamps = put { stamp with st_apps = mine :: stamp.st_apps } c.stamps;
        n_pending_apps = (if owned then c.n_pending_apps else c.n_pending_apps + 1);
        settled;
      };
  }

(* The trace index of the latest hop the index holds: its latest H.scan
   or its latest append, whichever came later ([-1] for neither). *)
let latest ix =
  let s = match ix.hscans with Hscan h -> h.idx | No_hscan -> -1 in
  match ix.core.apps with u :: _ when u.u_x_idx > s -> u.u_x_idx | _ -> s

(* Hops arrive in trace order. An index fed one that does not describes
   no run, and walks over it need not end, so such a hop is refused at
   once. *)
let in_order ix ~idx =
  let last = latest ix in
  if idx <= last then
    invalid_arg
      (Printf.sprintf "Aug_spec: trace index %d is not past the latest hop %d"
         idx last)

let hop_scan ix ~idx ~pid snap =
  in_order ix ~idx;
  { ix with hscans = Hscan { idx; pid; snap; before = ix.hscans } }

let hop_append ix ~idx ~pid = function
  | [] -> ix
  | first :: _ as triples ->
    in_order ix ~idx;
    append ix ~idx ~pid first triples

(* The paper's scan-result equality is over update triples (the prefix
   relation of Observation 1), so "the last scan that returns ℓ" means
   the last scan whose result is triple-equal to ℓ. H's triples are
   append-only, so per-component triple counts identify the state. *)
let same_triple_counts (s : Hrep.snap) (last : Hrep.snap) =
  let n = Array.length s in
  let rec from j =
    j = n || (s.(j).Hrep.n_triples = last.(j).Hrep.n_triples && from (j + 1))
  in
  n = Array.length last && from 0

(* Walk back from the latest [H.scan] below [x_idx] to the first
   matching one. *)
let window_start ix ~last ~x_idx =
  let rec back = function
    | No_hscan -> None
    | Hscan h ->
      if h.idx < x_idx && same_triple_counts h.snap last then Some h.idx
      else back h.before
  in
  back ix.hscans

(* Triple appends strictly inside [(lo, hi)] by another process than
   [proc], or by a lower one if [lower], counted up to [limit]; [apps] is
   latest first. *)
let appends_inside ?(limit = max_int) ~lo ~hi ~proc ~lower apps =
  let rec count n = function
    | u :: older when n < limit && u.u_x_idx > lo ->
      let q = u.u_writer in
      count
        (if u.u_x_idx < hi && (if lower then q < proc else q <> proc) then n + 1
         else n)
        older
    | _ -> n
  in
  count 0 apps

let rec owned_by proc n = function
  | [] -> n
  | (u :: _) :: older when u.u_writer = proc -> owned_by proc (n + 1) older
  | _ :: older -> owned_by proc n older

(* Lemmas 11 and 12 for the Block-Update by [proc] with timestamp [ts]:
   its Updates, appends in trace order, onto [errs] (latest first). *)
let judge_bu stamp ~proc ~ts ~start_idx ~x_idx result errs =
  let check errs u =
    match (result : bu_result) with
    | Atomic _ ->
      if u.u_lin <> x_idx then
        Printf.sprintf
          "Lemma 11: atomic Block-Update by q%d (ts %s): update to %d \
           linearized at %d, not at X=%d"
          proc (Vts.show ts) u.u_comp u.u_lin x_idx
        :: errs
      else errs
    | Yield ->
      if not (u.u_lin > start_idx && u.u_lin <= x_idx) then
        Printf.sprintf
          "Lemma 12: yield Block-Update by q%d (ts %s): update to %d \
           linearized at %d outside (%d, %d]"
          proc (Vts.show ts) u.u_comp u.u_lin start_idx x_idx
        :: errs
      else errs
  in
  let rec go errs = function
    | [] -> errs
    | mine :: older -> (
      let errs = go errs older in
      match mine with
      | u :: _ when u.u_writer = proc -> List.fold_left check errs mine
      | _ -> errs)
  in
  go errs stamp.st_apps

(* One completed M-operation: its log entry, and the verdicts no later
   hop can change. *)
let complete ix (mop : mop) =
  let c = ix.core in
  let s = c.settled in
  let core =
    match mop with
    | Scan_op { proc; start_idx; end_idx; n_ops; view; _ } ->
      (* Lemma 2: every append inside the Scan's interval is out. *)
      let k =
        appends_inside ~lo:start_idx ~hi:end_idx ~proc ~lower:false c.apps
      in
      {
        c with
        rev_log = mop :: c.rev_log;
        n_log = c.n_log + 1;
        scans =
          insert_scan
            { s_log = c.n_scans; s_proc = proc; s_view = view; s_end = end_idx }
            c.scans;
        n_scans = c.n_scans + 1;
        settled =
          (if n_ops > (2 * k) + 3 then
             {
               s with
               lemma2_thm20 =
                 Printf.sprintf "Lemma 2: Scan by q%d took %d > 2k+3 = %d steps"
                   proc n_ops
                   ((2 * k) + 3)
                 :: s.lemma2_thm20;
             }
           else s);
      }
    | Bu_op { proc; ts; start_idx; x_idx; end_idx; n_ops; result; _ } ->
      let stamp = stamp_of c ts in
      let atomic, windows =
        match result with
        | Atomic { view; last } ->
          ( true,
            {
              w_proc = proc;
              w_ts = ts;
              w_start = start_idx;
              w_x = x_idx;
              w_view = view;
              w_l = Option.value ~default:(-1) (window_start ix ~last ~x_idx);
            }
            :: c.windows )
        | Yield -> (false, c.windows)
      in
      (* Lemma 2 and Theorem 20: every append inside the interval is out. *)
      let lemma2_thm20 =
        let errs = s.lemma2_thm20 in
        let errs =
          if n_ops > 6 then
            Printf.sprintf "Lemma 2: Block-Update by q%d took %d > 6 steps" proc
              n_ops
            :: errs
          else errs
        in
        if atomic then errs
        else
          let errs =
            if proc = 0 then
              Printf.sprintf "Theorem 20: q0's Block-Update (ts %s) returned Y"
                (Vts.show ts)
              :: errs
            else errs
          in
          if
            appends_inside ~limit:1 ~lo:start_idx ~hi:end_idx ~proc ~lower:true
              c.apps
            = 0
          then
            Printf.sprintf
              "Theorem 20: Block-Update by q%d (ts %s) yielded without a \
               lower-id update in its interval (%d, %d)"
              proc (Vts.show ts) start_idx end_idx
            :: errs
          else errs
      in
      let lemma11_12 =
        judge_bu stamp ~proc ~ts ~start_idx ~x_idx result s.lemma11_12
      in
      {
        c with
        rev_log = mop :: c.rev_log;
        n_log = c.n_log + 1;
        stamps =
          put
            {
              stamp with
              st_done =
                { c_writer = proc; c_log = c.n_log; c_atomic = atomic }
                :: stamp.st_done;
            }
            c.stamps;
        windows;
        n_pending_apps =
          (if (done_by proc stamp.st_done).c_log >= 0 then c.n_pending_apps
           else c.n_pending_apps - owned_by proc 0 stamp.st_apps);
        settled =
          (if lemma11_12 == s.lemma11_12 && lemma2_thm20 == s.lemma2_thm20 then s
           else { s with lemma11_12; lemma2_thm20 });
      }
  in
  { ix with core }

let rev_log ix = ix.core.rev_log

let bu_of ix u = (done_by u.u_writer (stamp_of ix.core u.u_ts).st_done).c_log

(* Whether [u]'s completed Block-Update returned [Atomic]. *)
let is_atomic c u = (done_by u.u_writer (stamp_of c u.u_ts).st_done).c_atomic

(* Walk the linearization: Updates in order, each Scan after every
   Update linearized at or before its index (§3.3). Both lists are
   latest first, so the walk recurses to the first item and acts on the
   way back. *)
let iter_lin ix ~update ~scan =
  let rec go us ss =
    match (us, ss) with
    | [], [] -> ()
    | u :: us', s :: _ when u.u_lin > s.s_end ->
      go us' ss;
      update u
    | _, s :: ss' ->
      go us ss';
      scan s
    | u :: us', [] ->
      go us' [];
      update u
  in
  go ix.core.order ix.core.scans

let iter_appended ix ~lo ~hi f =
  let rec go = function
    | u :: older when u.u_x_idx > lo ->
      go older;
      if u.u_x_idx < hi then f u
    | _ -> ()
  in
  go ix.core.ups

let iter_pending ix f =
  if ix.core.n_pending_apps > 0 then
    let rec go = function
      | [] -> ()
      | u :: older ->
        go older;
        if bu_of ix u < 0 then f u
    in
    go ix.core.ups

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

(* [f] on each item of a latest-first list, oldest first. *)
let rec iter_oldest_first f = function
  | [] -> ()
  | x :: older ->
    iter_oldest_first f older;
    f x

(* Whether [view] is M at [l]: per component, the value of the last
   Update in the linearization with a point below [l], or ⊥. [order] is
   latest first, so the first one met per component is it. *)
let view_at ~m order ~l view =
  let seen = Bytes.make m '\000' in
  let rec go left = function
    | [] ->
      let rec bots j =
        j = m
        || (Bytes.get seen j <> '\000' || Value.equal view.(j) Value.Bot)
           && bots (j + 1)
      in
      bots 0
    | u :: rest ->
      if u.u_lin >= l || Bytes.get seen u.u_comp <> '\000' then go left rest
      else begin
        Bytes.set seen u.u_comp '\001';
        Value.equal u.u_value view.(u.u_comp) && (left = 1 || go (left - 1) rest)
      end
  in
  m = Array.length view && go m order

let report ix =
  let c = ix.core in
  let errors = ref c.settled.lemma9 in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in

  (* Corollary 15: replay M along the linearization; every Scan's view
     must match. Later hops can still put Updates before a Scan. *)
  if c.scans <> [] then begin
    let contents = Array.make c.m Value.Bot in
    iter_lin ix
      ~update:(fun u -> contents.(u.u_comp) <- u.u_value)
      ~scan:(fun s ->
        if not (Array.for_all2 Value.equal contents s.s_view) then
          err "Corollary 15: Scan by q%d at idx %d returned a stale view"
            s.s_proc s.s_end)
  end;

  (* Lemma 11 / Lemma 12, settled when each Block-Update completed. *)
  if c.settled.rejudge then
    iter_oldest_first
      (function
        | Bu_op { proc; ts; start_idx; x_idx; result; _ } ->
          errors :=
            judge_bu (stamp_of c ts) ~proc ~ts ~start_idx ~x_idx result !errors
        | Scan_op _ -> ())
      c.rev_log
  else errors := c.settled.lemma11_12 @ !errors;

  (* Lemma 11 contiguity: in the final order, the updates of each atomic
     Block-Update appear consecutively. They do when they all linearize
     at its X and no other writer's Update has its timestamp: the order
     then puts them together, and no Scan goes between Updates with one
     point. Otherwise compare their positions. *)
  let pos = ref [||] in
  let position u =
    if Array.length !pos = 0 then begin
      let p = Array.make (n_ups c) 0 and n = ref 0 in
      iter_lin ix
        ~update:(fun u ->
          p.(u.u_id) <- !n;
          incr n)
        ~scan:(fun _ -> incr n);
      pos := p
    end;
    !pos.(u.u_id)
  in
  iter_oldest_first
    (fun w ->
      let stamp = stamp_of c w.w_ts in
      let together =
        List.for_all
          (List.for_all (fun u -> u.u_writer = w.w_proc && u.u_lin = w.w_x))
          stamp.st_apps
      in
      if not together then
        let positions = ref [] in
        iter_oldest_first
          (function
            | u :: _ as mine when u.u_writer = w.w_proc ->
              List.iter (fun u -> positions := position u :: !positions) mine
            | _ -> ())
          stamp.st_apps;
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
    c.windows;

  (* ---- Windows (Lemmas 16-19). ---- *)
  iter_oldest_first
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
        if not (view_at ~m:c.m c.order ~l:l_idx w.w_view) then
          err
            "Lemma 19: atomic Block-Update by q%d (ts %s): returned view \
             differs from M at L=%d"
            proc (Vts.show w.w_ts) l_idx;
        (* Lemma 17: no Scan linearized in (L, X), reported in log order. *)
        let rec inside acc = function
          | s :: older when s.s_end > l_idx ->
            inside (if s.s_end < x_idx then s :: acc else acc) older
          | _ -> acc
        in
        List.iter
          (fun s ->
            err "Lemma 17: Scan by q%d linearized at %d inside window (%d, %d) of q%d"
              s.s_proc s.s_end l_idx x_idx proc)
          (List.sort (fun a b -> Int.compare a.s_log b.s_log) (inside [] c.scans));
        (* Lemma 19: only Updates of non-atomic Block-Updates by other
           processes linearize strictly inside the window; reported in
           trace order. *)
        let rec bad acc = function
          | u :: older when u.u_lin > l_idx ->
            bad
              (if u.u_lin < x_idx && (is_atomic c u || u.u_writer = proc) then
                 u :: acc
               else acc)
              older
          | _ -> acc
        in
        List.iter
          (fun u ->
            if is_atomic c u then
              err
                "Lemma 19: update by q%d (atomic BU) linearized at %d inside \
                 window (%d, %d) of q%d"
                u.u_writer u.u_lin l_idx x_idx proc
            else
              err
                "Lemma 19: update by the window owner q%d linearized inside its \
                 own window (%d, %d)"
                proc l_idx x_idx)
          (List.sort (fun a b -> Int.compare a.u_id b.u_id) (bad [] c.order))
      end)
    c.windows;
  (* Lemma 18: windows pairwise disjoint, latest first. *)
  let rec pairs = function
    | [] -> ()
    | w1 :: rest ->
      if w1.w_l >= 0 then
        List.iter
          (fun w2 ->
            let overlap = w2.w_l >= 0 && w1.w_l < w2.w_x && w2.w_l < w1.w_x in
            if
              overlap
              && not
                   (w1.w_x = w2.w_x && w1.w_proc = w2.w_proc
                  && Vts.equal w1.w_ts w2.w_ts)
            then
              err "Lemma 18: windows (%d,%d] of q%d and (%d,%d] of q%d intersect"
                w1.w_l w1.w_x w1.w_proc w2.w_l w2.w_x w2.w_proc)
          rest;
      pairs rest
  in
  pairs c.windows;

  (* Theorem 20 and Lemma 2, settled when each operation completed. *)
  errors := c.settled.lemma2_thm20 @ !errors;
  let rec tally n_bus n_atomic max_scan_ops max_bu_ops = function
    | [] ->
      {
        n_scans = c.n_scans;
        n_bus;
        n_atomic;
        n_yield = n_bus - n_atomic;
        n_incomplete_bus = c.n_pending_apps;
        max_scan_ops;
        max_bu_ops;
      }
    | Scan_op { n_ops; _ } :: older ->
      tally n_bus n_atomic (max max_scan_ops n_ops) max_bu_ops older
    | Bu_op { n_ops; result; _ } :: older ->
      let atomic = match result with Atomic _ -> 1 | Yield -> 0 in
      tally (n_bus + 1) (n_atomic + atomic) max_scan_ops (max max_bu_ops n_ops)
        older
  in
  let stats = tally 0 0 0 0 c.rev_log in
  { ok = !errors = []; errors = List.rev !errors; stats }

