open Rsim_value

let v = Alcotest.testable Value.pp Value.equal

let test_equal () =
  Alcotest.(check bool) "bot = bot" true (Value.equal Value.Bot Value.Bot);
  Alcotest.(check bool) "int eq" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "int neq" false (Value.equal (Value.Int 3) (Value.Int 4));
  Alcotest.(check bool)
    "pair eq" true
    (Value.equal
       (Value.Pair (Value.Int 1, Value.Str "a"))
       (Value.Pair (Value.Int 1, Value.Str "a")))

let test_compare_total () =
  let vs =
    [
      Value.Bot;
      Value.Bool false;
      Value.Int 0;
      Value.Int 5;
      Value.Float 1.5;
      Value.Str "x";
      Value.Pair (Value.Int 1, Value.Int 2);
      Value.List [ Value.Int 1 ];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        vs)
    vs

let test_projections () =
  Alcotest.(check int) "int_exn" 7 (Value.int_exn (Value.Int 7));
  Alcotest.check v "pair fst" (Value.Int 1)
    (fst (Value.pair_exn (Value.Pair (Value.Int 1, Value.Int 2))));
  Alcotest.(check bool)
    "int_exn raises" true
    (try
       ignore (Value.int_exn Value.Bot);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (float 1e-9)) "as_float of int" 3.0 (Value.as_float_exn (Value.Int 3))

let test_distinct () =
  let d =
    Value.distinct [ Value.Int 2; Value.Bot; Value.Int 1; Value.Int 2; Value.Bot ]
  in
  Alcotest.(check int) "two distinct" 2 (List.length d);
  Alcotest.(check bool) "no bot" true (List.for_all (fun x -> not (Value.is_bot x)) d)

let test_minmax () =
  Alcotest.check v "max" (Value.Int 5) (Value.max_value (Value.Int 3) (Value.Int 5));
  Alcotest.check v "min" (Value.Int 3) (Value.min_value (Value.Int 3) (Value.Int 5));
  Alcotest.check v "bot is smallest" (Value.Int 0)
    (Value.max_value Value.Bot (Value.Int 0))

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let draw seed =
    let g = Prng.make seed in
    let a, g = Prng.int g 1000 in
    let b, g = Prng.int g 1000 in
    let c, _ = Prng.int g 1000 in
    (a, b, c)
  in
  Alcotest.(check bool) "same seed same draws" true (draw 42 = draw 42);
  Alcotest.(check bool) "diff seed diff draws" true (draw 42 <> draw 43)

let test_prng_bounds () =
  let g = ref (Prng.make 7) in
  for _ = 1 to 1000 do
    let k, g' = Prng.int !g 10 in
    g := g';
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10)
  done

let test_prng_choose () =
  let g = Prng.make 1 in
  let x, _ = Prng.choose g [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "member" true (List.mem x [ "a"; "b"; "c" ])

let test_prng_shuffle () =
  let xs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let ys, _ = Prng.shuffle (Prng.make 3) xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort Int.compare ys)

let test_prng_float () =
  let g = ref (Prng.make 99) in
  for _ = 1 to 1000 do
    let x, g' = Prng.float !g in
    g := g';
    Alcotest.(check bool) "unit interval" true (x >= 0.0 && x < 1.0)
  done

(* [Prng.int_at g k bound] is the [k]-th of the draws [Prng.int] makes
   from [g], each with the generator the previous one returned, for
   random seeds, bounds (small and near [max_int]) and positions. *)
let test_prng_int_at () =
  let r = Random.State.make [| 25 |] in
  for _ = 1 to 500 do
    let start = Prng.make (Random.State.bits r - (1 lsl 29)) in
    let bound =
      if Random.State.bool r then 1 + Random.State.int r 10
      else max_int - Random.State.int r 1000
    in
    (* [g] is the generator after [k] draws. *)
    let rec walk g k =
      if k < 200 then begin
        let want, g' = Prng.int g bound in
        let got = Prng.int_at start k bound in
        if got <> want then
          Alcotest.failf "draw %d below %d: int_at %d, int %d" k bound got want;
        walk g' (k + 1)
      end
    in
    walk start 0
  done;
  (* Far positions, reached by [k] draws. *)
  for _ = 1 to 20 do
    let start = Prng.make (Random.State.bits r) in
    let bound = 1 + Random.State.int r 1000 in
    let k = Random.State.int r 100_000 in
    let rec skip g i = if i = 0 then g else skip (snd (Prng.int g bound)) (i - 1) in
    let want, _ = Prng.int (skip start k) bound in
    Alcotest.(check int) (Printf.sprintf "draw %d below %d" k bound) want
      (Prng.int_at start k bound)
  done

let test_prng_int_at_bound () =
  List.iter
    (fun bound ->
      Alcotest.check_raises
        (Printf.sprintf "bound %d" bound)
        (Invalid_argument "Prng.int_at: bound must be positive")
        (fun () -> ignore (Prng.int_at (Prng.make 1) 3 bound)))
    [ 0; -1; min_int ]

(* qcheck properties *)

let value_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return Value.Bot;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) small_signed_int;
            map (fun s -> Value.Str s) (string_size (int_bound 4));
          ]
      in
      if n <= 1 then base
      else
        frequency
          [
            (3, base);
            ( 1,
              map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2)) );
            (1, map (fun l -> Value.List l) (list_size (int_bound 3) (self (n / 2))));
          ])

let value_arb = QCheck.make ~print:Value.show value_gen

let prop_compare_reflexive =
  QCheck.Test.make ~name:"Value.compare reflexive" ~count:200 value_arb (fun x ->
      Value.compare x x = 0)

let prop_equal_iff_compare =
  QCheck.Test.make ~name:"Value.equal iff compare=0" ~count:200
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:200
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      if Value.compare a b <= 0 && Value.compare b c <= 0 then
        Value.compare a c <= 0
      else true)

let () =
  Alcotest.run "value"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "compare total" `Quick test_compare_total;
          Alcotest.test_case "projections" `Quick test_projections;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "minmax" `Quick test_minmax;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
          Alcotest.test_case "float" `Quick test_prng_float;
          Alcotest.test_case "positional draw" `Quick test_prng_int_at;
          Alcotest.test_case "positional draw bound" `Quick test_prng_int_at_bound;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compare_reflexive; prop_equal_iff_compare; prop_compare_transitive ]
      );
    ]
