(** Direct simulator (§4.1, Algorithm 5).

    A direct simulator [q_i] simulates a single process step by step:
    each scan via [M.Scan] and each update via a one-component
    [M.Block-Update] whose return value is ignored. With [d = x] direct
    simulators (given the highest identifiers), an [x]-obstruction-free
    protocol guarantees their simulated processes terminate whenever
    only they keep taking steps (Lemma 32). *)

(** [program cfg ~me ~proc] is simulator [me]'s program: it loops until
    the simulated process [proc] outputs, emitting its journal as
    {!Journal.Entry} notes; the output is its {!Journal.Jdecided}
    entry's. *)
val program :
  Rsim_augmented.Aug.config ->
  me:int ->
  proc:Rsim_shmem.Proc.t ->
  unit Rsim_augmented.Aug.Prog.t
