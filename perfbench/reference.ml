(* A fixed reference computation that gauges how fast the host runs at
   the moment it is timed.

   On a shared host the processor's speed drifts by a third and more,
   in phases that last from seconds to many minutes, and every pass and
   set-up slows with it. Each worker times this computation right before
   its set-up and right before every pass; the end-to-end times are
   reported scaled by [nominal_s / reference time], that is, as they
   would read on a host where this computation takes [nominal_s].

   It uses only the standard library, so no change to the libraries
   under test moves it, and it has the instruction mix of the code it
   gauges: effect-handler hops, small allocations, a hash table and an
   array sort. About 20 ms on a 2.1 GHz x86-64 processor. *)

type _ Effect.t += Hop : int -> int Effect.t

let fiber n () =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + Effect.perform (Hop i)
  done;
  !acc

let handle tbl round =
  Effect.Deep.match_with (fiber 500) ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Hop i ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                let key = ((i * 7919) + round) land 4095 in
                let l = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                Hashtbl.replace tbl key
                  (if List.length l > 4 then [ i ] else i :: l);
                Effect.Deep.continue k (key land 7))
          | _ -> None);
    }

let run () =
  let tbl = Hashtbl.create 1024 in
  let total = ref 0 in
  for round = 1 to 40 do
    total := !total + handle tbl round;
    let a = Array.init 2000 (fun j -> ((j * 48271) + round) land 65535) in
    Array.sort compare a;
    total := !total + a.(1000)
  done;
  Sys.opaque_identity !total

let nominal_s = 0.020
