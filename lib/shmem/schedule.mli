(** Schedulers (adversaries) for asynchronous executions.

    A scheduler repeatedly picks which live process takes the next step.
    Schedulers are pure values: [next] threads the scheduler state, so a
    given scheduler + seed always produces the same execution, and a
    state saved midway replays the same decisions however often it is
    resumed. They are shared by the simulated-system engine ({!Run}) and
    by the real-system runtime ([Prog]).

    A schedule is data, not a chain of closures: each constructor below
    is one case of a variant, and [next] interprets it. A decision of
    [round_robin], [solo], [script], [drawn], [random] or [among]
    allocates only the returned [Some (pid, t')] and the successor case:
    the random ones keep their stream's start and a position, and draw
    with {!Rsim_value.Prng.int_at}, so no generator state is boxed, and
    [among] counts and indexes its eligible pids in place. *)

type t

(** [next t ~live] picks a pid among [live] (non-empty, sorted ascending)
    or returns [None] if the schedule is exhausted / refuses to schedule. *)
val next : t -> live:int list -> (int * t) option

(** Cycle through live processes in pid order. *)
val round_robin : t

(** Only ever schedule [pid]; exhausts when [pid] is not live. *)
val solo : int -> t

(** Follow a fixed pid script, skipping entries that are not live;
    exhausts at end of script. *)
val script : int list -> t

(** [drawn g ~n ~len] is [script] of [len] pids drawn from [g] with
    successive [Prng.int _ n] calls, each drawn only when a decision
    reaches it: an execution that stops early draws only what it used.
    Raises [Invalid_argument] if [len > 0] and [n <= 0]. *)
val drawn : Rsim_value.Prng.t -> n:int -> len:int -> t

(** Uniformly random live process each step. *)
val random : seed:int -> t

(** Random schedule over a fixed set of processes (an x-obstruction
    adversary suffix: only processes in [procs] take steps). *)
val among : procs:int list -> seed:int -> t

(** [phased ~prefix_len ~prefix ~suffix]: run [prefix] for [prefix_len]
    steps, then [suffix]. The standard shape of obstruction-freedom
    tests: adversarial prefix, then P-only suffix. *)
val phased : prefix_len:int -> prefix:t -> suffix:t -> t

(** [with_crashes crashes t]: like [t], but process [pid] is removed from
    the live set after it has taken [steps] steps, for each
    [(pid, steps)] in [crashes]. When [crashes] names a pid more than
    once, its first entry counts. *)
val with_crashes : (int * int) list -> t -> t

(** Fully custom scheduler. The function receives the global step index
    and the live set. *)
val fn : (step:int -> live:int list -> int option) -> t
