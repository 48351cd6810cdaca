open Rsim_value

type zeta_step = Zscan of Value.t array | Zupdate of int * Value.t

type event =
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
