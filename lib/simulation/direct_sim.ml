open Rsim_shmem
open Rsim_augmented
open Aug.Prog

let program cfg ~me ~proc =
  let rec loop proc =
    match Proc.poised proc with
    | Proc.Scan ->
      let* view = Aug.scan_prog cfg ~me in
      loop (Proc.step_scan proc view)
    | Proc.Update (j, v) ->
      let* _ = Aug.block_update_prog cfg ~me [ (j, v) ] in
      loop (Proc.step_update proc)
    | Proc.Output value ->
      let event = Journal.Jdecided { proc = 0; value } in
      emit (Journal.Entry { sim = me; event })
  in
  loop proc
