(** Covering simulator (§4.1, Algorithms 6 and 7).

    A covering simulator [q_i] simulates [m] processes, trying to build a
    block update covering all [m] components of the simulated snapshot
    [M]. It recursively constructs block updates to [r] components for
    growing [r]; whenever a constructed (r−1)-block hits a component set
    it has already simulated with an {e atomic} Block-Update, it uses
    that Block-Update's returned view to {b revise the past} of its
    [r]-th process — locally simulating a hidden solo execution that the
    block update conceals. If a simulated process ever outputs, the
    simulator adopts that output; if it completes an [m]-block, it
    locally simulates the block followed by its first process's
    terminating solo run and outputs that value (Algorithm 7).

    The simulator is a persistent program: the states of its simulated
    processes are immutable {!Rsim_shmem.Proc.t} values threaded through
    its continuations, and everything it records leaves as
    {!Journal.Entry} notes. Its output is the value of its
    {!Journal.Jdecided} or {!Journal.Jfinal} entry. *)

(** [program cfg ~me ~procs ~local_cap] is simulator [me]'s program over
    the augmented snapshot configured by [cfg]. [procs] are the [m]
    simulated processes [p_{i,1} .. p_{i,m}] in their initial states
    (each poised to scan); [local_cap] bounds every local (hidden) solo
    simulation, failing loudly if the protocol is not obstruction-free. *)
val program :
  Rsim_augmented.Aug.config ->
  me:int ->
  procs:Rsim_shmem.Proc.t array ->
  local_cap:int ->
  unit Rsim_augmented.Aug.Prog.t
