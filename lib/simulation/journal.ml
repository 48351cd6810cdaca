open Rsim_value

type zeta_step = Zscan of Value.t array | Zupdate of int * Value.t

type event =
  | Jscan of { serial : int; view : Value.t array }
  | Jbu of { serial : int; updates : (int * Value.t) list; atomic : bool }
  | Jrevise of {
      after_serial : int;
      proc : int;
      source_serial : int;
      zeta : zeta_step list;
    }
  | Jfinal of {
      beta : (int * Value.t) list;
      xi : zeta_step list;
      output : Value.t;
    }
  | Jdecided of { proc : int; value : Value.t }

type Rsim_augmented.Aug.note += Entry of { sim : int; event : event }

type t = { mutable rev : event list }

let create () = { rev = [] }
let push t e = t.rev <- e :: t.rev
let events t = List.rev t.rev
