(** Constraint checking for DAG allocations: the DAG view over the
    shared checker core {!Insp_mapping.Check.check_view}, which also
    checks trees.  The structural pass and constraints (1)–(5) are the
    core's; this module supplies only what a DAG changes:
    - the demand of a processor, where the compute load of a node is
      [rate_i * w_i] (its own required rate, not one global rho);
    - the streams a processor receives: a node's output crossing to
      another processor is ONE stream per destination processor, at the
      fastest rate any consumer there needs, so a processor hosting two
      consumers of the same remote node receives the stream once.

    Allocations reuse {!Insp_mapping.Alloc} with node ids in place of
    operator ids, and violations reuse {!Insp_mapping.Check.violation}. *)

type demand = Insp_mapping.Demand.t = {
  compute : float;  (** Mops/s *)
  download : float;  (** MB/s over the group's distinct object inputs *)
  comm_in : float;  (** MB/s from external producer nodes (dedup) *)
  comm_out : float;
      (** MB/s to external consumers — exact per-destination dedup when
          computed from an allocation, conservative per-consumer when
          computed from a bare group *)
}

val nic : demand -> float

val group_demand : Dag.t -> int list -> demand
(** Conservative demand of co-locating the given nodes: external
    consumers are each assumed to live on distinct processors.  Only
    decreases when other nodes join neighbouring groups, making it safe
    for incremental placement. *)

val proc_demand : Dag.t -> Insp_mapping.Alloc.t -> int -> demand
(** Exact demand of processor [u] under a complete allocation
    (per-destination stream dedup). *)

val pair_flow : Dag.t -> Insp_mapping.Alloc.t -> int -> int -> float
(** MB/s over the link between two processors (both directions, one
    stream per (producer, destination) pair). *)

val distinct_objects : Dag.t -> int list -> int list
(** Distinct object types the group downloads. *)

val check :
  Dag.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  Insp_mapping.Check.violation list
