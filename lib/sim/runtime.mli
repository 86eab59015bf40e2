(** Flow-level discrete-event execution of a deployed mapping.

    The paper evaluates mappings analytically (constraints (1)–(5)); this
    runtime actually {e executes} them in simulation and measures the
    throughput the deployment sustains, validating the analytic model:

    - each processor runs its operators' evaluations one at a time
      (evaluation of operator [i] takes [w_i / s_u] seconds);
    - an evaluation of result [t] starts once every operator-child's
      result [t] is available locally (co-located children) or has
      arrived over the network (remote children);
    - cross-processor results travel as flows of [delta_i] MB sharing
      bandwidth max-min fairly under the bounded multi-port model
      ({!Fair_share}): sender card, receiver card and the point-to-point
      link constrain each flow;
    - every processor re-downloads each basic object in its plan from its
      chosen server once per refresh period ([1/f_k]), as competing
      flows;
    - the pipeline free-runs with a bounded work-ahead window, so the
      measured completion rate at the root converges to the deployment's
      maximum sustainable throughput.

    A mapping accepted by {!Insp_mapping.Check} sustains at least the
    target [rho]; an overloaded mapping falls measurably short — tests
    assert both directions. *)

type report = {
  sim_time : float;  (** simulated seconds *)
  results_completed : int;  (** root results over the whole run *)
  achieved_throughput : float;
      (** root results per second over the post-warmup window *)
  target_throughput : float;  (** the application's rho *)
  proc_busy : float array;  (** per-processor busy fraction *)
  download_delivered : float;  (** MB of basic-object refresh delivered *)
  download_ideal : float;
      (** MB that would be delivered at the nominal refresh rates *)
  events : int;  (** discrete events processed *)
  root_completions : float array;
      (** ascending timestamps of every root-result completion — the
          raw signal the fault engine turns into throughput dips and
          recovery times *)
}

val sustains_target : report -> bool
(** [achieved_throughput >= 0.95 * rho] — the 5% margin absorbs pipeline
    fill and scheduling granularity, which the paper's fluid model does
    not account for. *)

(** {1 Capacity disruptions (fault injection)}

    A disruption multiplies the nominal capacity of every matching
    bandwidth constraint by [d_factor] over the window
    [[d_from, d_until)]: card jitter ([Proc_card]), a data-server
    outage ([Server_card] with factor ~0) or a degraded link.  Windows
    may overlap (factors multiply) and are applied through
    {!Fair_share_inc.set_capacity}, so only the affected component is
    re-waterfilled.  An empty disruption list leaves the run
    bit-identical to one without the parameter. *)

type scope =
  | Proc_card of int  (** processor [u]'s network card *)
  | Server_card of int  (** data server [l]'s card *)
  | Proc_link of int * int
      (** the processor pair's link, both directions *)
  | Server_link of int * int  (** the (server, processor) link *)

type disruption = {
  d_scope : scope;
  d_from : float;
  d_until : float;  (** capacity restored at this instant *)
  d_factor : float;  (** multiplier on the nominal capacity, >= 0 *)
}

val run :
  ?window:int ->
  ?horizon:float ->
  ?warmup:float ->
  ?kernel:Fair_share_inc.kernel ->
  ?disruptions:disruption list ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  report
(** [window] bounds the pipeline work-ahead (results in flight beyond
    the last root completion); the default scales with the number of
    processors ([max 8 (2 * n_procs)]) so the bound never throttles a
    deep pipeline.  [horizon] (default 80 simulated seconds) and
    [warmup] (default a quarter of the horizon) frame the measurement.
    [kernel] selects the fair-share solver (default [`Incremental]);
    both kernels are deterministic and produce identical reports — the
    [`Full] oracle exists for equivalence testing and debugging (see
    {!Fair_share_inc}).  [disruptions] (default none) injects capacity
    faults mid-run; see {!disruption}.  Requires every operator
    assigned (checker-valid structure); capacity violations are allowed
    and simply show up as reduced throughput. *)

(** {1 Graph view}

    The event loop runs over a small graph view rather than over the
    operator tree itself, so an operator DAG ({!Insp_multi.Dag_runtime})
    is executed by the same loop: a tree is the one-application case.
    Node [i] is evaluated once per result on its processor and its
    output crosses once to every remote processor hosting one of its
    consumers, however many consumers live there. *)

type graph = {
  work : float array;  (** Mops per evaluation, per node *)
  output : float array;  (** MB per evaluation, per node *)
  inputs : int array array;
      (** the nodes each node consumes, in input order (basic objects
          are not listed: they arrive through the download plan) *)
  roots : int array;
      (** one sink node per application; the work-ahead window and the
          reported throughput follow the slowest *)
  rho : float;  (** every application's target throughput *)
  objects : Insp_tree.Objects.t;  (** sizes and refresh rates of the plan *)
}

val run_graph :
  ?window:int ->
  ?horizon:float ->
  ?warmup:float ->
  graph ->
  Insp_platform.Platform.t ->
  Insp_mapping.Alloc.t ->
  report
(** {!run} over an explicit graph view whose node ids are the
    allocation's operator ids.  [results_completed] and
    [achieved_throughput] are the minimum over the roots;
    [root_completions] merges every root's timestamps. *)

val pp_report : Format.formatter -> report -> unit
