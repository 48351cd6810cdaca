open Rsim_shmem
open Rsim_augmented
open Aug.Prog

let program cfg ~me ~proc =
  let journal event = emit (Journal.Entry { sim = me; event }) in
  let rec loop proc serial =
    match Proc.poised proc with
    | Proc.Scan ->
      let* view = Aug.scan_prog cfg ~me in
      let serial = serial + 1 in
      let* () = journal (Journal.Jscan { serial; view }) in
      loop (Proc.step_scan proc view) serial
    | Proc.Update (j, v) ->
      let* result = Aug.block_update_prog cfg ~me [ (j, v) ] in
      let serial = serial + 1 in
      let atomic = match result with `View _ -> true | `Yield -> false in
      let* () =
        journal (Journal.Jbu { serial; updates = [ (j, v) ]; atomic })
      in
      loop (Proc.step_update proc) serial
    | Proc.Output y -> journal (Journal.Jdecided { proc = 0; value = y })
  in
  loop proc 0
