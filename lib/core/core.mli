(** Revisionist Simulations — public umbrella API.

    One module per concept, re-exported from the substrate libraries.
    The layering mirrors the paper (and Figure 1):

    {ul
    {- {b Simulated system} (§2.1): {!Value}, {!Proc}, {!Snapshot},
       {!Objects}, {!Schedule}, {!Run}, {!Linearize}.}
    {- {b Real system}: {!Prog} (persistent programs and their
       single-step-scheduled interpreter).}
    {- {b Augmented snapshot} (§3): {!Vts}, {!Hrep}, {!Aug}, and its
       executable specification {!Aug_spec}.}
    {- {b Tasks and protocols}: {!Task}, {!Racing}, {!Adopt2},
       {!Committee}, {!Approx_agreement}, {!Pathological}.}
    {- {b The revisionist simulation} (§4): {!Journal}, {!Complexity},
       {!Covering_sim}, {!Direct_sim}, {!Harness}, {!Analysis}.}
    {- {b Derandomization} (§5): {!Ndproto}, {!Solo_path},
       {!Derandomize}, {!Mrun}, {!Aba}, {!Nd_examples}.}
    {- {b Bounds}: {!Lower}, {!Upper}, {!Tables}.}} *)

val version : string

module Obs = Rsim_obs.Obs
module Value = Rsim_value.Value
module Prng = Rsim_value.Prng
module Proc = Rsim_shmem.Proc
module Snapshot = Rsim_shmem.Snapshot
module Objects = Rsim_shmem.Objects
module Schedule = Rsim_shmem.Schedule
module Run = Rsim_shmem.Run
module Linearize = Rsim_shmem.Linearize
module Prog = Rsim_runtime.Prog
module Faults = Rsim_faults.Faults
module Vts = Rsim_augmented.Vts
module Hrep = Rsim_augmented.Hrep
module Aug = Rsim_augmented.Aug

module Aug_spec : sig
  include module type of struct
    include Rsim_augmented.Aug_spec
  end

  (** [check aug _trace] is [report (Aug.index aug)]: the trace goes
      unread. Kept only for the benchmark's [reduce] workload; the
      benchmark change that moves it to [report] deletes it. *)
  val check : Aug.t -> Aug.Prog.trace_entry list -> report
end
module Task = Rsim_tasks.Task
module Racing = Rsim_protocols.Racing
module Adopt2 = Rsim_protocols.Adopt2
module Committee = Rsim_protocols.Committee
module Approx_agreement = Rsim_protocols.Approx_agreement
module Pathological = Rsim_protocols.Pathological
module Safe_agreement = Rsim_protocols.Safe_agreement
module Journal = Rsim_simulation.Journal
module Complexity = Rsim_simulation.Complexity
module Covering_sim = Rsim_simulation.Covering_sim
module Direct_sim = Rsim_simulation.Direct_sim
module Harness = Rsim_simulation.Harness
module Analysis = Rsim_simulation.Analysis
module Covering_witness = Rsim_simulation.Covering_witness
module Trace_pp = Rsim_simulation.Trace_pp
module Ndproto = Rsim_solo.Ndproto
module Solo_path = Rsim_solo.Solo_path
module Derandomize = Rsim_solo.Derandomize
module Mrun = Rsim_solo.Mrun
module Aba = Rsim_solo.Aba
module Nd_examples = Rsim_solo.Nd_examples
module Explore = Rsim_explore.Explore
module Artifact = Rsim_explore.Artifact
module Regsnap = Rsim_regsnap.Regsnap
module Sperner = Rsim_topology.Sperner
module Lower = Rsim_bounds.Lower
module Upper = Rsim_bounds.Upper
module Tables = Rsim_bounds.Tables
