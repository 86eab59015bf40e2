(** Discrete-event execution of a DAG allocation: the DAG view over
    {!Insp_sim.Runtime}'s event loop.

    This module only builds the {!Insp_sim.Runtime.graph} view of a
    {!Dag.t} (per-node work, output size and node inputs, one root per
    application); the tree runtime's loop executes it, with its
    incremental fair-share kernel, lazy rate refresh, journaling, spans
    and counters.  Shared nodes are evaluated once per result and their
    output streams to each consuming processor once (one flow per
    destination, however many consumers live there), exactly as
    {!Dag_check} accounts bandwidth.  The report's achieved throughput
    is the {e slowest} sink's rate, so [sustains] means every
    application meets its target.

    Limitation: all node rates must be equal (which {!Dag.finish}
    guarantees whenever all applications share one rho — the case our
    correlated workloads generate).  Mixed-rate DAGs would need
    subsampled consumption semantics and are rejected with
    [Invalid_argument]. *)

val run :
  ?window:int ->
  ?horizon:float ->
  ?warmup:float ->
  Dag.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_sim.Runtime.report
(** Defaults as in {!Insp_sim.Runtime.run}; the report's
    [achieved_throughput] is the minimum over application sinks. *)

val sustains_target : Insp_sim.Runtime.report -> bool
(** Re-exported {!Insp_sim.Runtime.sustains_target}. *)
