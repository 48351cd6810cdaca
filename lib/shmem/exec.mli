(** Indistinguishability and execution manipulation (§2).

    The paper's configurations-and-executions vocabulary, executable:
    two configurations are indistinguishable to a set of processes P if
    every process in P has the same state in both and the shared memory
    agrees; then any P-only execution applicable at one is applicable at
    the other (the lemma every covering argument leans on). Because
    {!Run.config}s are immutable, these checks and transfers are pure
    functions. *)

type pid_set = int list

(** [indistinguishable c c' ~procs]: same memory contents and, for each
    pid in [procs], the same poised action. Process states are opaque,
    so this is the {e observable} relation — a necessary condition for
    the paper's state equality. [transfer] below re-checks the relation
    {e after} applying a schedule, so any protocol whose hidden state
    diverges despite equal observations is caught at runtime rather than
    silently mis-analyzed. *)
val indistinguishable : Run.config -> Run.config -> procs:pid_set -> bool

(** [transfer ~from_ ~to_ ~procs pids]: the transfer lemma, checked at
    runtime. Requires [indistinguishable from_ to_ ~procs] and [pids ⊆
    procs]; applies the schedule to both configurations and checks the
    results are again indistinguishable to [procs], returning both.
    Raises [Invalid_argument] if the premise fails, [Failure] if the
    conclusion fails (which would falsify the model). *)
val transfer :
  from_:Run.config ->
  to_:Run.config ->
  procs:pid_set ->
  int list ->
  Run.config * Run.config

(** Processes covering each component: [covering c j] is the list of
    pids poised to update component [j] (the covering-argument
    primitive). *)
val covering : Run.config -> int -> pid_set

(** A block write: apply the poised updates of [pids] (each must be
    poised to update), in order. Raises if some pid is not poised to
    update. *)
val block_write : Run.config -> pid_set -> Run.config
