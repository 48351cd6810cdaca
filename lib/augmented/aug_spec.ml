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
  w_end : int;
  w_view : Value.t array;
  w_l : int;
  w_n : int;  (* the atomic Block-Updates completed so far, this one too *)
}

(* The verdicts settled so far, each list latest first, and the tallies
   that rarely move; a new record only when one of them changes. *)
type settled = {
  lemma9 : string list;
  cor15 : string list;
  lemma11_12 : string list;
  contiguity : string list;  (* Lemma 11: atomic Updates consecutive *)
  windows_16_19 : string list;  (* Lemmas 16, 17 and 19, window by window *)
  lemma18 : string list;
  lemma2_thm20 : string list;
  rejudge : bool;
      (* a later hop or completion made a settled verdict stale, so
         [report] judges the whole index again *)
  max_scan_ops : int;
  max_bu_ops : int;
  n_q0_yields : int;  (* Block-Updates of process 0 that returned Y *)
}

(* What changes only at a triple append or an M-operation's completion.
   Lists are latest first. *)
type core = {
  m : int;  (* components of M *)
  ups : update list;  (* every Update, by trace position *)
  apps : update list;  (* the first Update of each triple append *)
  order : update list;
      (* the Updates by (u_lin, u_ts, u_comp), ties in trace order *)
  records : update list array;
      (* per component, each Update whose append made its timestamp the
         largest appended to it so far, or as large: the first is the
         component's last Update in [order], so M's contents past every
         Update are the first ones' values *)
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
          {
            lemma9 = [];
            cor15 = [];
            lemma11_12 = [];
            contiguity = [];
            windows_16_19 = [];
            lemma18 = [];
            lemma2_thm20 = [];
            rejudge = false;
            max_scan_ops = 0;
            max_bu_ops = 0;
            n_q0_yields = 0;
          };
      };
  }

let n_ups c = match c.ups with u :: _ -> u.u_id + 1 | [] -> 0
let n_atomic c = match c.windows with w :: _ -> w.w_n | [] -> 0

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

(* The linearization point of an Update (j, t) appended at [idx] is the
   first trace index at which H contains a triple for component j with
   timestamp ≽ t: the append of the oldest of the latest records whose
   timestamp is ≽ t, or [idx] itself when there is none. *)
let rec first_reaching ts lin = function
  | v :: rest when Vts.geq v.u_ts ts -> first_reaching ts v.u_x_idx rest
  | _ -> lin

(* The latest completion's [end_idx], or [-1]. Completions come in
   [end_idx] order, so it is the largest. *)
let last_end_of c =
  match c.rev_log with
  | (Scan_op { end_idx; _ } | Bu_op { end_idx; _ }) :: _ -> end_idx
  | [] -> -1

(* The latest of [dones] by [writer]; [c_log = -1] when there is none. *)
let rec done_by writer = function
  | [] -> { c_writer = writer; c_log = -1; c_atomic = false }
  | d :: older -> if d.c_writer = writer then d else done_by writer older

(* Whether one of [mine] linearizes at or before [last_end]. *)
let rec any_at_or_before last_end = function
  | [] -> false
  | u :: rest -> u.u_lin <= last_end || any_at_or_before last_end rest

(* One triple append by [pid] at [idx]: its Updates, their points, and
   its Lemma 9 verdict. *)
let append ix ~idx ~pid (first : Hrep.triple) triples =
  let c = ix.core in
  let ts = first.ts in
  let stamp = stamp_of c ts in
  (* Before an append, the writer's latest [H.scan] is its Line-2 scan. *)
  let inv = match last_scan_by pid ix.hscans with -1 -> idx | s -> s in
  let records = Array.copy c.records in
  let rec add g n mine ups order = function
    | [] -> (List.rev mine, ups, order)
    | (tr : Hrep.triple) :: rest ->
      let j = tr.comp in
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
      (match records.(j) with
      | v :: _ when Vts.compare v.u_ts tr.ts > 0 -> ()
      | vs -> records.(j) <- u :: vs);
      add (g + 1) (n + 1) (u :: mine) (u :: ups) (insert_lin u order) rest
  in
  let mine, ups, order = add 0 (n_ups c) [] c.ups c.order triples in
  (* Lemma 9: the first writer of a timestamp owns it; each Update of
     another writer with that timestamp is reported. An Update that
     linearizes at or before a completion can change what was settled
     there, and so can one that joins a completed Block-Update. *)
  let own = owner pid stamp.st_apps in
  let owned = (done_by pid stamp.st_done).c_log >= 0 in
  let late = any_at_or_before (last_end_of c) mine in
  let settled =
    let s = c.settled in
    if own = pid && not (owned || late) then s
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
        rejudge = s.rejudge || owned || late;
      }
  in
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

let rev_log ix = ix.core.rev_log

let bu_of ix u = (done_by u.u_writer (stamp_of ix.core u.u_ts).st_done).c_log

(* Whether [u]'s completed Block-Update returned [Atomic]. *)
let is_atomic c u = (done_by u.u_writer (stamp_of c u.u_ts).st_done).c_atomic

(* Walk the linearization: Updates in order, each Scan after every
   Update linearized at or before its index (§3.3). Both lists are
   latest first, so the walk recurses to the first item and acts on the
   way back. *)
let iter_lin_core c ~update ~scan =
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
  go c.order c.scans

let iter_lin ix = iter_lin_core ix.core

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

(* The walk of [iter_lin] against the log, in one pass. Only the order is
   the index's; intervals, values and views are the log's, and a pending
   Update's interval starts at its [u_inv], as in the history the
   explorer's search judges. Sorted points inside the intervals respect
   real-time order: were [a] to return before [b] is invoked while [b]
   comes first, then [inv b <= pt b <= pt a <= ret a <= inv b], so one
   H-operation index would be both [a]'s last and [b]'s first, and no
   two M-operations share an H-operation. *)
let lin_witness ix =
  let c = ix.core in
  let n_log = c.n_log in
  let log = Array.of_list c.rev_log in
  let mop p = log.(n_log - 1 - p) in
  (* Each Scan's log position by its rank among the Scans, and each
     Update's completed Block-Update's ([-1] when pending). *)
  let scan_at = Array.make c.n_scans 0 in
  let rec rank k p =
    if p < n_log then
      match mop p with
      | Scan_op _ ->
        scan_at.(k) <- p;
        rank (k + 1) (p + 1)
      | Bu_op _ -> rank k (p + 1)
  in
  rank 0 0;
  let bu_at = Array.make (n_ups c) (-1) in
  List.iter
    (fun st ->
      List.iter
        (function
          | u :: _ as app ->
            let p = (done_by u.u_writer st.st_done).c_log in
            List.iter (fun u -> bu_at.(u.u_id) <- p) app
          | [] -> ())
        st.st_apps)
    c.stamps;
  (* Per log position: its Updates placed so far, or 1 for a placed
     Scan. [block] is the atomic Block-Update whose Update was placed
     last, if the last item placed is one: an atomic Block-Update is one
     entry of the history, so its Updates must be consecutive, and then
     writing them one by one is writing the entry (its components are
     distinct). *)
  let placed = Array.make n_log 0 in
  let contents = Array.make c.m Value.Bot in
  let point = ref (-1) and block = ref (-1) in
  let exception Refused in
  let at pt ~lo ~hi =
    if pt < lo || pt > hi || pt < !point then raise Refused;
    point := pt
  in
  let update u =
    let p = bu_at.(u.u_id) in
    if p < 0 then begin
      at u.u_lin ~lo:u.u_inv ~hi:max_int;
      block := -1
    end
    else begin
      match mop p with
      | Bu_op { updates; start_idx; x_idx; end_idx; result; _ } -> (
        at u.u_lin ~lo:start_idx ~hi:end_idx;
        (* One append per trace index, and [u_g] is the Update's place
           in it: so each logged pair is written once. *)
        (match List.nth_opt updates u.u_g with
        | Some (j, v)
          when u.u_x_idx = x_idx && j = u.u_comp && Value.equal v u.u_value ->
          ()
        | Some _ | None -> raise Refused);
        let k = placed.(p) + 1 in
        placed.(p) <- k;
        match result with
        | Atomic _ ->
          if k > 1 && !block <> p then raise Refused;
          block := p
        | Yield -> block := -1)
      | Scan_op _ -> raise Refused
    end;
    contents.(u.u_comp) <- u.u_value
  in
  let scan s =
    let p = scan_at.(s.s_log) in
    match mop p with
    | Scan_op { start_idx; end_idx; view; _ } ->
      at s.s_end ~lo:start_idx ~hi:end_idx;
      block := -1;
      placed.(p) <- placed.(p) + 1;
      if
        Array.length view <> c.m || not (Array.for_all2 Value.equal contents view)
      then raise Refused
    | Bu_op _ -> raise Refused
  in
  match iter_lin ix ~update ~scan with
  | exception Refused -> false
  | () ->
    let rec all_placed p =
      p = n_log
      || (match mop p with
         | Scan_op _ -> placed.(p) = 1
         | Bu_op { updates; _ } ->
           List.compare_length_with updates placed.(p) = 0)
         && all_placed (p + 1)
    in
    all_placed 0

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

(* [view_at ~m order ~l view]: whether [view] is M at [l], per
   component the value of the last Update in the linearization with a
   point below [l], or ⊥. [order] is latest first, so the first one met
   per component is it. *)
let rec unseen_bots seen view j =
  j = Array.length view
  || (Bytes.get seen j <> '\000' || Value.equal view.(j) Value.Bot)
     && unseen_bots seen view (j + 1)

let rec view_from seen view ~l left = function
  | [] -> unseen_bots seen view 0
  | u :: rest ->
    if u.u_lin >= l || Bytes.get seen u.u_comp <> '\000' then
      view_from seen view ~l left rest
    else begin
      Bytes.set seen u.u_comp '\001';
      Value.equal u.u_value view.(u.u_comp)
      && (left = 1 || view_from seen view ~l (left - 1) rest)
    end

let view_at ~m order ~l view =
  m = Array.length view && view_from (Bytes.make m '\000') view ~l m order

(* Lemma 11 contiguity for the atomic Block-Update of [w]: in the order,
   its Updates appear consecutively. They do when they all linearize at
   its X and no other writer's Update has its timestamp: the order then
   puts them together, and no Scan goes between Updates with one point.
   Otherwise [contiguity_errors] compares their positions. *)
let rec together w = function
  | [] -> true
  | mine :: older -> all_at_x w mine && together w older

and all_at_x w = function
  | [] -> true
  | u :: rest -> u.u_writer = w.w_proc && u.u_lin = w.w_x && all_at_x w rest

(* Each Update's position in the linearization, Scans counted. *)
let numbering c =
  let p = Array.make (n_ups c) 0 and n = ref 0 in
  iter_lin_core c
    ~update:(fun u ->
      p.(u.u_id) <- !n;
      incr n)
    ~scan:(fun _ -> incr n);
  p

let contiguity_errors pos stamp w errs =
  let positions = ref [] in
  iter_oldest_first
    (function
      | u :: _ as mine when u.u_writer = w.w_proc ->
        List.iter (fun u -> positions := pos.(u.u_id) :: !positions) mine
      | _ -> ())
    stamp.st_apps;
  match List.sort Int.compare !positions with
  | [] -> errs
  | first :: _ as ps ->
    let errs = ref errs in
    List.iteri
      (fun k p ->
        if p <> first + k then
          errs :=
            Printf.sprintf
              "Lemma 11: updates of atomic Block-Update by q%d (ts %s) are \
               not consecutive in the linearization"
              w.w_proc (Vts.show w.w_ts)
            :: !errs)
      ps;
    !errs

(* The Scans of [scans] (latest first) linearized strictly inside
   [(l, x)], oldest first. *)
let rec scans_inside ~l ~x acc = function
  | s :: older when s.s_end > l ->
    scans_inside ~l ~x (if s.s_end < x then s :: acc else acc) older
  | _ -> acc

(* The Updates of [order] (latest first) linearized strictly inside
   [(l, x)] that belong to an atomic Block-Update or to [proc]. *)
let rec bad_inside c ~proc ~l ~x acc = function
  | u :: older when u.u_lin > l ->
    bad_inside c ~proc ~l ~x
      (if u.u_lin < x && (is_atomic c u || u.u_writer = proc) then u :: acc
       else acc)
      older
  | _ -> acc

let rec lemma17_errors ~proc ~l ~x errs = function
  | [] -> errs
  | s :: rest ->
    lemma17_errors ~proc ~l ~x
      (Printf.sprintf
         "Lemma 17: Scan by q%d linearized at %d inside window (%d, %d) of q%d"
         s.s_proc s.s_end l x proc
      :: errs)
      rest

let rec lemma19_errors c ~proc ~l ~x errs = function
  | [] -> errs
  | u :: rest ->
    lemma19_errors c ~proc ~l ~x
      ((if is_atomic c u then
          Printf.sprintf
            "Lemma 19: update by q%d (atomic BU) linearized at %d inside \
             window (%d, %d) of q%d"
            u.u_writer u.u_lin l x proc
        else
          Printf.sprintf
            "Lemma 19: update by the window owner q%d linearized inside its \
             own window (%d, %d)"
            proc l x)
      :: errs)
      rest

(* Lemmas 16, 17 and 19 for the window [w], judged on [c]; errors onto
   [errs], latest first. *)
let judge_window c w errs =
  let proc = w.w_proc and l = w.w_l and x = w.w_x in
  if l < 0 then
    Printf.sprintf "Lemma 16: atomic Block-Update by q%d (ts %s): cannot locate L"
      proc (Vts.show w.w_ts)
    :: errs
  else
    let errs =
      if l < w.w_start then
        Printf.sprintf
          "Lemma 16: atomic Block-Update by q%d (ts %s): L=%d before its first \
           scan %d"
          proc (Vts.show w.w_ts) l w.w_start
        :: errs
      else errs
    in
    let errs =
      if not (view_at ~m:c.m c.order ~l w.w_view) then
        Printf.sprintf
          "Lemma 19: atomic Block-Update by q%d (ts %s): returned view differs \
           from M at L=%d"
          proc (Vts.show w.w_ts) l
        :: errs
      else errs
    in
    (* Lemma 17: no Scan linearized in (L, X), reported in log order. *)
    let errs =
      match scans_inside ~l ~x [] c.scans with
      | [] -> errs
      | inside ->
        lemma17_errors ~proc ~l ~x errs
          (List.sort (fun a b -> Int.compare a.s_log b.s_log) inside)
    in
    (* Lemma 19: only Updates of non-atomic Block-Updates by other
       processes linearize strictly inside the window; reported in trace
       order. *)
    match bad_inside c ~proc ~l ~x [] c.order with
    | [] -> errs
    | bad ->
      lemma19_errors c ~proc ~l ~x errs
        (List.sort (fun a b -> Int.compare a.u_id b.u_id) bad)

(* Lemma 18 for the window [w1] against [older], latest first. When the
   windows are [sorted] by completion, the walk stops at the first one
   that completed by [w1]'s L: its X, and every older one's, is no later. *)
let rec overlaps ~sorted w1 errs = function
  | w2 :: rest when w1.w_l >= 0 && ((not sorted) || w2.w_end > w1.w_l) ->
    let overlap = w2.w_l >= 0 && w1.w_l < w2.w_x && w2.w_l < w1.w_x in
    let errs =
      if
        overlap
        && not
             (w1.w_x = w2.w_x && w1.w_proc = w2.w_proc
            && Vts.equal w1.w_ts w2.w_ts)
      then
        Printf.sprintf "Lemma 18: windows (%d,%d] of q%d and (%d,%d] of q%d intersect"
          w1.w_l w1.w_x w1.w_proc w2.w_l w2.w_x w2.w_proc
        :: errs
      else errs
    in
    overlaps ~sorted w1 errs rest
  | _ -> errs

(* Whether [view] is M's contents past every Update: per component, the
   value of its first record, or ⊥. *)
let rec view_is_last records view j =
  j = Array.length records
  || (match records.(j) with
     | u :: _ -> Value.equal u.u_value view.(j)
     | [] -> Value.equal Value.Bot view.(j))
     && view_is_last records view (j + 1)

(* Whether an Update linearizes strictly inside one of [windows], latest
   first and so by completion: once a window completed at or before the
   Update's point, its X and every older window's lie there or before. *)
let rec inside_window u = function
  | w :: older when w.w_end > u.u_lin ->
    (w.w_l >= 0 && w.w_l < u.u_lin && u.u_lin < w.w_x) || inside_window u older
  | _ -> false

let rec any_inside windows = function
  | [] -> false
  | u :: rest -> inside_window u windows || any_inside windows rest

(* Whether an append by [proc] in [apps] has an Update inside a window. *)
let rec apps_inside windows proc = function
  | [] -> false
  | (u :: _ as mine) :: older when u.u_writer = proc ->
    any_inside windows mine || apps_inside windows proc older
  | _ :: older -> apps_inside windows proc older

(* A completion can be judged where it lands when it lands after every
   hop and every earlier completion, as it does in a run: then every
   Update and Scan its checks read is in, but for the Updates the
   rejudge triggers catch. *)
let settles ix ~end_idx = end_idx > last_end_of ix.core && end_idx >= latest ix

(* One completed M-operation: its log entry, and its verdicts. Lemma 2
   and Theorem 20 never change later. The rest are settled here too
   unless [rejudge] is set, which [report] then answers with a whole
   walk: by an Update that linearizes at or before a completion, or
   joins a completed Block-Update ([append]), by a completion that
   changes whether an Update inside a settled window belongs to an
   atomic Block-Update, and by a completion out of order or a Scan view
   of the wrong width, which no run makes. *)
let complete ix (mop : mop) =
  let c = ix.core in
  let s = c.settled in
  match mop with
  | Scan_op { proc; start_idx; end_idx; n_ops; view; _ } ->
    (* Lemma 2: every append inside the Scan's interval is out. *)
    let k =
      appends_inside ~lo:start_idx ~hi:end_idx ~proc ~lower:false c.apps
    in
    let s =
      if n_ops > s.max_scan_ops then { s with max_scan_ops = n_ops } else s
    in
    let s =
      if n_ops > (2 * k) + 3 then
        {
          s with
          lemma2_thm20 =
            Printf.sprintf "Lemma 2: Scan by q%d took %d > 2k+3 = %d steps" proc
              n_ops
              ((2 * k) + 3)
            :: s.lemma2_thm20;
        }
      else s
    in
    (* Corollary 15: every Update so far linearizes before the Scan. *)
    let s =
      if s.rejudge then s
      else if (not (settles ix ~end_idx)) || Array.length view <> c.m then
        { s with rejudge = true }
      else if view_is_last c.records view 0 then s
      else
        {
          s with
          cor15 =
            Printf.sprintf "Corollary 15: Scan by q%d at idx %d returned a stale view"
              proc end_idx
            :: s.cor15;
        }
    in
    {
      ix with
      core =
        {
          c with
          rev_log = mop :: c.rev_log;
          n_log = c.n_log + 1;
          scans =
            insert_scan
              { s_log = c.n_scans; s_proc = proc; s_view = view; s_end = end_idx }
              c.scans;
          n_scans = c.n_scans + 1;
          settled = s;
        };
    }
  | Bu_op { proc; ts; start_idx; x_idx; end_idx; n_ops; result; _ } ->
    let stamp = stamp_of c ts in
    let was = done_by proc stamp.st_done in
    let q0_yield = proc = 0 && match result with Yield -> true | Atomic _ -> false in
    let s =
      if n_ops > s.max_bu_ops || q0_yield then
        {
          s with
          max_bu_ops = max s.max_bu_ops n_ops;
          n_q0_yields = (if q0_yield then s.n_q0_yields + 1 else s.n_q0_yields);
        }
      else s
    in
    let atomic, windows =
      match result with
      | Atomic { view; last } ->
        ( true,
          {
            w_proc = proc;
            w_ts = ts;
            w_start = start_idx;
            w_x = x_idx;
            w_end = end_idx;
            w_view = view;
            w_l = Option.value ~default:(-1) (window_start ix ~last ~x_idx);
            w_n = n_atomic c + 1;
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
    let c' =
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
          (if was.c_log >= 0 then c.n_pending_apps
           else c.n_pending_apps - owned_by proc 0 stamp.st_apps);
      }
    in
    let settled =
      if
        s.rejudge
        || (not (settles ix ~end_idx))
        || (was.c_atomic <> atomic && apps_inside c.windows proc stamp.st_apps)
      then
        if s.rejudge && lemma2_thm20 == s.lemma2_thm20 then s
        else { s with lemma2_thm20; rejudge = true }
      else
        (* Lemmas 11 and 12 for this Block-Update, and for a window its
           contiguity, Lemmas 16, 17 and 19, and Lemma 18 against the
           earlier windows. *)
        let lemma11_12 =
          judge_bu stamp ~proc ~ts ~start_idx ~x_idx result s.lemma11_12
        in
        match windows with
        | w :: older when atomic ->
          let contiguity =
            if together w stamp.st_apps then s.contiguity
            else contiguity_errors (numbering c') stamp w s.contiguity
          in
          let windows_16_19 = judge_window c' w s.windows_16_19 in
          let lemma18 =
            match overlaps ~sorted:true w [] older with
            | [] -> s.lemma18
            | errs -> s.lemma18 @ errs
          in
          if
            lemma11_12 == s.lemma11_12
            && lemma2_thm20 == s.lemma2_thm20
            && contiguity == s.contiguity
            && windows_16_19 == s.windows_16_19
            && lemma18 == s.lemma18
          then s
          else
            {
              s with
              lemma11_12;
              lemma2_thm20;
              contiguity;
              windows_16_19;
              lemma18;
            }
        | _ ->
          if lemma11_12 == s.lemma11_12 && lemma2_thm20 == s.lemma2_thm20 then s
          else { s with lemma11_12; lemma2_thm20 }
    in
    { ix with core = (if settled == c.settled then c' else { c' with settled }) }

let n_q0_yields ix = ix.core.settled.n_q0_yields
let last_end ix = last_end_of ix.core

let m_rejudged = Rsim_obs.Obs.Metrics.counter "aug.spec.rejudged"

(* The whole walk, for an index a later hop or completion has marked:
   every verdict [complete] settles, judged again on the index as it
   stands, in the order of the settled path. *)
let walk ix =
  let c = ix.core in
  let errors = ref c.settled.lemma9 in

  (* Corollary 15: replay M along the linearization; every Scan's view
     must match. *)
  if c.scans <> [] then begin
    let contents = Array.make c.m Value.Bot in
    iter_lin ix
      ~update:(fun u -> contents.(u.u_comp) <- u.u_value)
      ~scan:(fun s ->
        if not (Array.for_all2 Value.equal contents s.s_view) then
          errors :=
            Printf.sprintf "Corollary 15: Scan by q%d at idx %d returned a stale view"
              s.s_proc s.s_end
            :: !errors)
  end;

  (* Lemma 11 / Lemma 12: a later append may have joined a Block-Update
     judged at its completion. *)
  iter_oldest_first
    (function
      | Bu_op { proc; ts; start_idx; x_idx; result; _ } ->
        errors :=
          judge_bu (stamp_of c ts) ~proc ~ts ~start_idx ~x_idx result !errors
      | Scan_op _ -> ())
    c.rev_log;

  (* Lemma 11 contiguity, numbering the order at most once. *)
  let pos = ref [||] in
  iter_oldest_first
    (fun w ->
      let stamp = stamp_of c w.w_ts in
      if not (together w stamp.st_apps) then begin
        if Array.length !pos = 0 then pos := numbering c;
        errors := contiguity_errors !pos stamp w !errors
      end)
    c.windows;

  (* Windows (Lemmas 16, 17, 19), then Lemma 18: windows pairwise
     disjoint, latest first. *)
  iter_oldest_first (fun w -> errors := judge_window c w !errors) c.windows;
  let rec pairs = function
    | [] -> ()
    | w1 :: rest ->
      errors := overlaps ~sorted:false w1 !errors rest;
      pairs rest
  in
  pairs c.windows;

  (* Theorem 20 and Lemma 2, settled when each operation completed. *)
  List.rev (c.settled.lemma2_thm20 @ !errors)

let report ix =
  let c = ix.core in
  let s = c.settled in
  let errors =
    if s.rejudge then begin
      Rsim_obs.Obs.Metrics.incr m_rejudged;
      walk ix
    end
    else
      List.rev
        (s.lemma2_thm20 @ s.lemma18 @ s.windows_16_19 @ s.contiguity
       @ s.lemma11_12 @ s.cor15 @ s.lemma9)
  in
  {
    ok = errors = [];
    errors;
    stats =
      {
        n_scans = c.n_scans;
        n_bus = c.n_log - c.n_scans;
        n_atomic = n_atomic c;
        n_yield = c.n_log - c.n_scans - n_atomic c;
        n_incomplete_bus = c.n_pending_apps;
        max_scan_ops = s.max_scan_ops;
        max_bu_ops = s.max_bu_ops;
      };
  }
