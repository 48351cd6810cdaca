open Rsim_value
open Rsim_augmented

let ts a = Vts.of_array a

let test_vts_order () =
  Alcotest.(check bool) "lex <" true (Vts.compare (ts [| 0; 1 |]) (ts [| 1; 0 |]) < 0);
  Alcotest.(check bool) "lex >" true (Vts.compare (ts [| 1; 0 |]) (ts [| 0; 5 |]) > 0);
  Alcotest.(check bool) "eq" true (Vts.equal (ts [| 2; 3 |]) (ts [| 2; 3 |]));
  Alcotest.(check bool) "geq refl" true (Vts.geq (ts [| 2; 3 |]) (ts [| 2; 3 |]))

let test_vts_make () =
  let t = Vts.make ~counts:[| 3; 1; 2 |] ~me:1 in
  Alcotest.(check (array int)) "increments own entry" [| 3; 2; 2 |] (Vts.to_array t)

let triple comp value tsv = { Hrep.comp; value = Value.Int value; ts = ts tsv }

let test_count_bu () =
  let c =
    Hrep.append_triples Hrep.empty_component
      [ triple 0 1 [| 1; 0 |]; triple 1 2 [| 1; 0 |] ]
  in
  Alcotest.(check int) "one BU, two triples" 1 (Hrep.count_bu c);
  let c = Hrep.append_triples c [ triple 0 3 [| 2; 0 |] ] in
  Alcotest.(check int) "two BUs" 2 (Hrep.count_bu c);
  Alcotest.(check int) "empty" 0 (Hrep.count_bu Hrep.empty_component)

let test_prefix () =
  let h = Hrep.create ~f:2 in
  let h1 = Array.copy h in
  h1.(0) <- Hrep.append_triples h.(0) [ triple 0 1 [| 1; 0 |] ];
  let h2 = Array.copy h1 in
  h2.(1) <- Hrep.append_triples h1.(1) [ triple 1 2 [| 1; 1 |] ];
  Alcotest.(check bool) "h prefix h1" true (Hrep.is_prefix h h1);
  Alcotest.(check bool) "h1 prefix h2" true (Hrep.is_prefix h1 h2);
  Alcotest.(check bool) "h prefix h2 (transitive)" true (Hrep.is_prefix h h2);
  Alcotest.(check bool) "h2 not prefix h1" false (Hrep.is_prefix h2 h1);
  Alcotest.(check bool) "proper" true (Hrep.is_proper_prefix h h1);
  Alcotest.(check bool) "not proper of self" false (Hrep.is_proper_prefix h1 h1);
  Alcotest.(check bool) "equal_triples of self" true (Hrep.equal_triples h1 h1)

let test_lrecords_ignored_by_equality () =
  let h = Hrep.create ~f:2 in
  let h' = Array.copy h in
  h'.(0) <-
    Hrep.append_lrecords h.(0) [ { Hrep.dest = 1; index = 0; payload = h } ];
  Alcotest.(check bool) "lrecords invisible to equal_triples" true
    (Hrep.equal_triples h h');
  Alcotest.(check bool) "lrecords invisible to prefix" true (Hrep.is_prefix h' h)

let test_get_view () =
  let h = Hrep.create ~f:2 in
  h.(0) <- Hrep.append_triples h.(0) [ triple 0 10 [| 1; 0 |] ];
  h.(1) <-
    Hrep.append_triples h.(1)
      [ triple 0 20 [| 1; 1 |]; triple 1 30 [| 1; 1 |] ];
  let view = Hrep.get_view ~m:3 h in
  Alcotest.(check bool) "comp 0 = larger ts wins" true
    (Value.equal view.(0) (Value.Int 20));
  Alcotest.(check bool) "comp 1" true (Value.equal view.(1) (Value.Int 30));
  Alcotest.(check bool) "comp 2 untouched" true (Value.is_bot view.(2))

let test_new_timestamp_dominates () =
  (* Corollary 8: a timestamp generated from h is larger than any
     timestamp contained in h. *)
  let h = Hrep.create ~f:3 in
  h.(0) <- Hrep.append_triples h.(0) [ triple 0 1 [| 1; 0; 0 |] ];
  h.(1) <- Hrep.append_triples h.(1) [ triple 1 2 [| 1; 1; 0 |] ];
  List.iter
    (fun me ->
      let t = Hrep.new_timestamp h ~me in
      List.iter
        (fun (_, tr) ->
          Alcotest.(check bool)
            (Printf.sprintf "fresh ts by %d dominates" me)
            true
            (Vts.compare t tr.Hrep.ts > 0))
        (Hrep.all_triples h))
    [ 0; 1; 2 ]

let test_read_l () =
  let h = Hrep.create ~f:2 in
  let payload1 = Hrep.create ~f:2 in
  let payload2 = Hrep.create ~f:2 in
  payload2.(0) <- Hrep.append_triples payload2.(0) [ triple 0 1 [| 1; 0 |] ];
  h.(0) <-
    Hrep.append_lrecords h.(0)
      [ { Hrep.dest = 1; index = 0; payload = payload1 } ];
  h.(0) <-
    Hrep.append_lrecords h.(0)
      [ { Hrep.dest = 1; index = 0; payload = payload2 } ];
  (match Hrep.read_l h ~writer:0 ~reader:1 ~index:0 with
  | Some p ->
    Alcotest.(check bool) "last write wins" true (Hrep.equal_triples p payload2)
  | None -> Alcotest.fail "expected a record");
  Alcotest.(check bool) "missing index is bot" true
    (Hrep.read_l h ~writer:0 ~reader:1 ~index:5 = None);
  Alcotest.(check bool) "wrong reader is bot" true
    (Hrep.read_l h ~writer:0 ~reader:0 ~index:0 = None)

let test_contains_ts () =
  let h = Hrep.create ~f:2 in
  h.(0) <- Hrep.append_triples h.(0) [ triple 0 1 [| 1; 0 |] ];
  Alcotest.(check bool) "contains" true (Hrep.contains_ts h (ts [| 1; 0 |]));
  Alcotest.(check bool) "not contains" false (Hrep.contains_ts h (ts [| 2; 0 |]))

(* An append conses its batch onto the list it extends: appending one
   batch allocates the same words whether the component holds nothing or
   1,000 triples or L-records. *)
let test_appends_do_not_copy () =
  let big = 1000 and reps = 1000 in
  let words append c =
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (append c))
    done;
    Gc.minor_words () -. w0
  in
  let full_t =
    Hrep.append_triples Hrep.empty_component
      (List.init big (fun k -> triple 0 k [| 1; 0 |]))
  in
  let batch = [ triple 0 7 [| 2; 0 |] ] in
  let on_empty = words (fun c -> Hrep.append_triples c batch) Hrep.empty_component in
  let on_full = words (fun c -> Hrep.append_triples c batch) full_t in
  if on_full > on_empty then
    Alcotest.failf "a triple append to %d triples allocated %.0f words, to none %.0f"
      big (on_full /. float reps) (on_empty /. float reps);
  let record = { Hrep.dest = 1; index = 0; payload = Hrep.create ~f:2 } in
  let full_l =
    Hrep.append_lrecords Hrep.empty_component (List.init big (fun _ -> record))
  in
  let on_empty = words (fun c -> Hrep.append_lrecords c [ record ]) Hrep.empty_component in
  let on_full = words (fun c -> Hrep.append_lrecords c [ record ]) full_l in
  if on_full > on_empty then
    Alcotest.failf "an L-record append to %d records allocated %.0f words, to none %.0f"
      big (on_full /. float reps) (on_empty /. float reps)

(* qcheck: prefix relation is a partial order on randomly grown H states. *)
let grow_sequence_gen =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map string_of_int ops))
    QCheck.Gen.(list_size (int_bound 8) (int_bound 1))

let states_of_growth ops =
  (* Grow a 2-process H; record every intermediate state. *)
  let h = ref (Hrep.create ~f:2) in
  let k = ref 0 in
  let states = ref [ Array.copy !h ] in
  List.iter
    (fun writer ->
      incr k;
      let h' = Array.copy !h in
      h'.(writer) <-
        Hrep.append_triples h'.(writer)
          [ { Hrep.comp = 0; value = Value.Int !k;
              ts = ts (if writer = 0 then [| !k; 0 |] else [| 0; !k |]) } ];
      h := h';
      states := Array.copy h' :: !states)
    ops;
  List.rev !states

let prop_prefix_chain =
  QCheck.Test.make ~name:"growth states form a prefix chain" ~count:100
    grow_sequence_gen (fun ops ->
      let states = states_of_growth ops in
      let rec chain = function
        | a :: (b :: _ as rest) -> Hrep.is_prefix a b && chain rest
        | _ -> true
      in
      chain states)

let prop_prefix_antisym =
  QCheck.Test.make ~name:"mutual prefix implies triple-equality" ~count:100
    grow_sequence_gen (fun ops ->
      let states = states_of_growth ops in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if Hrep.is_prefix a b && Hrep.is_prefix b a then
                Hrep.equal_triples a b
              else true)
            states)
        states)

let prop_counts_monotone =
  QCheck.Test.make ~name:"#h_j monotone along growth" ~count:100 grow_sequence_gen
    (fun ops ->
      let states = states_of_growth ops in
      let rec chain = function
        | a :: (b :: _ as rest) ->
          let ca = Hrep.counts a and cb = Hrep.counts b in
          ca.(0) <= cb.(0) && ca.(1) <= cb.(1) && chain rest
        | _ -> true
      in
      chain states)

(* ---- the caches against list-walking definitions ---- *)

(* Reference definitions over the triple and L-record lists alone,
   which hold the latest first. *)
let walk_count_bu (c : Hrep.component) =
  let rec go ts n = function
    | [] -> n
    | (t : Hrep.triple) :: rest ->
      if Vts.equal ts t.ts then go ts n rest else go t.ts (n + 1) rest
  in
  match c.triples with [] -> 0 | t :: rest -> go t.ts 1 rest

let walk_triple_equal (a : Hrep.triple) (b : Hrep.triple) =
  a.comp = b.comp && Value.equal a.value b.value && Vts.equal a.ts b.ts

let walk_equal_triples (a : Hrep.snap) (b : Hrep.snap) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (ca : Hrep.component) (cb : Hrep.component) ->
         List.length ca.triples = List.length cb.triples
         && List.for_all2 walk_triple_equal ca.triples cb.triples)
       a b

(* Prefix in append order: of the lists reversed, oldest first. *)
let walk_is_prefix (a : Hrep.snap) (b : Hrep.snap) =
  let rec prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' -> walk_triple_equal x y && prefix xs' ys'
  in
  Array.length a = Array.length b
  && Array.for_all2
       (fun (ca : Hrep.component) (cb : Hrep.component) ->
         prefix (List.rev ca.triples) (List.rev cb.triples))
       a b

(* Algorithm 2 as written: walk every triple, writer by writer, oldest
   first; a later triple wins only with a strictly larger timestamp. *)
let walk_get_view ~m (h : Hrep.snap) =
  let view = Array.make m Value.Bot in
  let best = Array.make m None in
  Array.iter
    (fun (c : Hrep.component) ->
      List.iter
        (fun (t : Hrep.triple) ->
          if t.comp >= 0 && t.comp < m then
            match best.(t.comp) with
            | Some b when Vts.geq b t.ts -> ()
            | Some _ | None ->
              best.(t.comp) <- Some t.ts;
              view.(t.comp) <- t.value)
        (List.rev c.triples))
    h;
  view

(* The last write in append order: the first match from the latest. *)
let walk_read_l (h : Hrep.snap) ~writer ~reader ~index =
  List.find_map
    (fun (l : Hrep.lrecord) ->
      if l.dest = reader && l.index = index then Some l.payload else None)
    h.(writer).lrecords

(* One step of H. A Block-Update writes distinct components, some of
   them outside [0, m) for every [m] the property reads; its timestamp is
   fresh (New-Timestamp) or one already in H, picked by [reuse] — as when
   a process recomputes a timestamp after its Line-4 append was dropped,
   and so that equal and smaller timestamps meet Get-View's tie rule. *)
type grow =
  | Bu of { writer : int; comps : int list; reuse : int option; value : int }
  | Drop of int  (** a Block-Update's timestamp, its append dropped *)
  | Lrecs of { writer : int; recs : (int * int) list }  (** (dest, index) *)

let f_grow = 3

let grow_gen =
  let open QCheck.Gen in
  let bu =
    map4
      (fun writer comps reuse value ->
        Bu { writer; comps = List.sort_uniq Int.compare comps; reuse; value })
      (int_bound (f_grow - 1))
      (list_size (int_range 1 3) (int_range (-1) 3))
      (opt ~ratio:0.4 nat) (int_bound 9)
  in
  let lrecs =
    map2
      (fun writer recs -> Lrecs { writer; recs })
      (int_bound (f_grow - 1))
      (list_size (int_range 1 2) (pair (int_bound (f_grow - 1)) (int_bound 2)))
  in
  let drop = map (fun writer -> Drop writer) (int_bound (f_grow - 1)) in
  list_size (int_bound 12) (frequency [ (3, bu); (1, lrecs); (1, drop) ])

let show_grow = function
  | Bu { writer; comps; reuse; value } ->
    Printf.sprintf "bu(q%d,[%s],%s,%d)" writer
      (String.concat "," (List.map string_of_int comps))
      (match reuse with None -> "fresh" | Some k -> Printf.sprintf "reuse %d" k)
      value
  | Drop writer -> Printf.sprintf "drop(q%d)" writer
  | Lrecs { writer; recs } ->
    Printf.sprintf "l(q%d,[%s])" writer
      (String.concat "," (List.map (fun (d, i) -> Printf.sprintf "%d:%d" d i) recs))

(* Every state of H along the appends, copy on write as {!Aug.apply}
   publishes them. *)
let grown_states gs =
  let used = ref [] in
  let step h g =
    let h' = Array.copy h in
    (match g with
    | Bu { writer; comps; reuse; value } ->
      let ts =
        match (reuse, !used) with
        | Some k, (_ :: _ as used) -> List.nth used (k mod List.length used)
        | Some _, [] | None, _ -> Hrep.new_timestamp h ~me:writer
      in
      used := ts :: !used;
      h'.(writer) <-
        Hrep.append_triples h.(writer)
          (List.map
             (fun comp -> { Hrep.comp; value = Value.Int (value + comp); ts })
             comps)
    | Drop writer -> used := Hrep.new_timestamp h ~me:writer :: !used
    | Lrecs { writer; recs } ->
      h'.(writer) <-
        Hrep.append_lrecords h.(writer)
          (List.map (fun (dest, index) -> { Hrep.dest; index; payload = h }) recs));
    h'
  in
  let h0 = Hrep.create ~f:f_grow in
  List.rev (List.fold_left (fun acc g -> step (List.hd acc) g :: acc) [ h0 ] gs)

(* The same contents built apart, one append per component in append
   order, sharing no list or triple with the original. *)
let rebuilt (h : Hrep.snap) =
  Array.map
    (fun (c : Hrep.component) ->
      Hrep.append_lrecords
        (Hrep.append_triples Hrep.empty_component
           (List.rev_map (fun (t : Hrep.triple) -> { t with Hrep.comp = t.comp }) c.triples))
        (List.rev c.lrecords))
    h

let prop_caches_match_walks =
  QCheck.Test.make ~name:"cached H reads match the list walks" ~count:300
    (QCheck.make
       ~print:(fun (gs, gs') ->
         let show gs = String.concat ";" (List.map show_grow gs) in
         show gs ^ " | " ^ show gs')
       (QCheck.Gen.pair grow_gen grow_gen))
    (fun (gs, gs') ->
      (* Two histories, so that equal counts meet unequal contents. *)
      let grown = grown_states gs @ grown_states gs' in
      let states = grown @ List.map rebuilt grown in
      let same_view a b = Array.for_all2 Value.equal a b in
      let same_l a b =
        match (a, b) with Some x, Some y -> x == y | None, None -> true | _ -> false
      in
      List.for_all
        (fun h ->
          Hrep.counts h = Array.map walk_count_bu h
          && Array.for_all (fun c -> Hrep.count_bu c = walk_count_bu c) h
          && List.for_all
               (fun m -> same_view (Hrep.get_view ~m h) (walk_get_view ~m h))
               [ 1; 2; 3; 5 ]
          && List.for_all
               (fun (writer, reader, index) ->
                 same_l
                   (Hrep.read_l h ~writer ~reader ~index)
                   (walk_read_l h ~writer ~reader ~index))
               (List.concat_map
                  (fun w ->
                    List.concat_map
                      (fun r -> List.map (fun i -> (w, r, i)) [ 0; 1; 2 ])
                      [ 0; 1; 2 ])
                  [ 0; 1; 2 ])
          && List.for_all
               (fun h' ->
                 Hrep.equal_triples h h' = walk_equal_triples h h'
                 && Hrep.is_prefix h h' = walk_is_prefix h h')
               states)
        states)

let () =
  Alcotest.run "hrep"
    [
      ( "vts",
        [
          Alcotest.test_case "lexicographic order" `Quick test_vts_order;
          Alcotest.test_case "new-timestamp" `Quick test_vts_make;
        ] );
      ( "hrep",
        [
          Alcotest.test_case "count_bu" `Quick test_count_bu;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "lrecords ignored" `Quick test_lrecords_ignored_by_equality;
          Alcotest.test_case "get_view" `Quick test_get_view;
          Alcotest.test_case "corollary 8" `Quick test_new_timestamp_dominates;
          Alcotest.test_case "read_l" `Quick test_read_l;
          Alcotest.test_case "contains_ts" `Quick test_contains_ts;
          Alcotest.test_case "appends do not copy" `Quick test_appends_do_not_copy;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_prefix_chain;
            prop_prefix_antisym;
            prop_counts_monotone;
            prop_caches_match_walks;
          ] );
    ]
