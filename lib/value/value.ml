type t =
  | Bot
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list
[@@deriving eq, ord, show { with_path = false }]

let is_bot v = match v with Bot -> true | _ -> false

let int_exn = function
  | Int n -> n
  | v -> invalid_arg ("Value.int_exn: " ^ show v)

let pair_exn = function
  | Pair (a, b) -> (a, b)
  | v -> invalid_arg ("Value.pair_exn: " ^ show v)

let as_float_exn = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> invalid_arg ("Value.as_float_exn: " ^ show v)

let max_value a b = if compare a b >= 0 then a else b
let min_value a b = if compare a b <= 0 then a else b

let distinct vs =
  List.filter (fun v -> not (is_bot v)) vs
  |> List.sort_uniq compare
