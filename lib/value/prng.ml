(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. State is a single 64-bit counter; each draw
   advances by the golden-gamma and mixes. *)

type t = int64

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = mix64 (Int64.of_int seed)

let next t =
  let t' = Int64.add t golden_gamma in
  (mix64 t', t')

(* A draw from state [t']: the top bits, via a logical shift, for
   uniformity over small bounds. Inlined, so no int64 is boxed. *)
let[@inline] draw t' bound =
  Int64.to_int (Int64.shift_right_logical (mix64 t') 2) mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let t' = Int64.add t golden_gamma in
  (draw t' bound, t')

(* After [k] draws the state is [t + k * gamma], so the [k]-th draw mixes
   [t + (k + 1) * gamma]. *)
let int_at t k bound =
  if bound <= 0 then invalid_arg "Prng.int_at: bound must be positive";
  draw (Int64.add t (Int64.mul (Int64.of_int (k + 1)) golden_gamma)) bound

let bool t =
  let r, t' = next t in
  (Int64.logand r 1L = 1L, t')

let float t =
  let r, t' = next t in
  let bits53 = Int64.to_int (Int64.shift_right_logical r 11) in
  (float_of_int bits53 /. 9007199254740992.0, t')

let choose t xs =
  match xs with
  | [] -> invalid_arg "Prng.choose: empty list"
  | _ ->
    let k, t' = int t (List.length xs) in
    (List.nth xs k, t')

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let rec go i t =
    if i <= 0 then t
    else begin
      let j, t' = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      go (i - 1) t'
    end
  in
  let t' = go (n - 1) t in
  (Array.to_list arr, t')
