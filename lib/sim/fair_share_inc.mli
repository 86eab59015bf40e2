(** Incremental max-min fair-share kernel.

    Maintains a persistent flow/constraint bipartite incidence structure
    so that the event loop can add and remove flows cheaply and only pay
    for re-solving the connected component that actually changed.
    Constraints (port capacities, link capacities) are registered once
    and keep their index for the lifetime of the kernel; flows come and
    go, with slots reused so the working set stays proportional to the
    number of {e concurrently} active flows.

    Two kernels sit behind the same interface:

    - [`Full] — the oracle: every {!refresh} rebuilds the dense
      caps/membership arrays over all active flows and calls
      {!Fair_share.compute}.
    - [`Incremental] — tracks connected components of the incidence
      graph with {!Insp_util.Union_find} and re-waterfills only the dirty
      components, selecting each round's bottleneck through a
      lazy-deletion {!Insp_util.Heap} keyed by fair share with the
      constraint index as tie-break.

    Both kernels are deterministic and produce {e bit-identical} rates:
    max-min water-filling decomposes over connected components, and the
    incremental path replicates the oracle's tie-breaking (lowest
    constraint index) and its flow iteration order (ascending flow id)
    exactly.  See DESIGN.md §11 for the invariants. *)

type kernel = [ `Full | `Incremental ]

type t

type stats = {
  refreshes : int;  (** {!refresh} calls that did any work *)
  components_recomputed : int;  (** components re-waterfilled *)
  flows_recomputed : int;  (** flow rates recomputed across those *)
  rounds : int;  (** water-filling rounds executed *)
  rebuilds : int;  (** union-find rebuilds (after removals/growth) *)
}

val create : ?kernel:kernel -> unit -> t
(** Fresh empty kernel.  [kernel] defaults to [`Incremental]. *)

val add_constraint : t -> float -> int
(** [add_constraint t cap] registers a capacity and returns its
    constraint index.  Indices are dense, starting at 0, and never
    recycled.  Raises [Invalid_argument] on a negative cap. *)

val set_capacity : t -> int -> float -> unit
(** [set_capacity t cid cap] replaces the registered capacity of
    constraint [cid] — the fault-injection entry point (processor card
    jitter, link degradation, server outage).  Takes effect on rates at
    the next {!refresh}: the incremental kernel re-waterfills only the
    constraint's component, the full oracle recomputes as always.
    Raises [Invalid_argument] on an unknown index or a negative cap. *)

val add_flow : t -> int list -> int
(** [add_flow t ms] registers a flow crossing constraints [ms] (in the
    order the caller wants capacity subtracted, normally as built) and
    returns its flow id.  Ids are reused LIFO after {!remove_flow}.  The
    new flow's rate is 0 until the next {!refresh}.  Raises
    [Invalid_argument] if [ms] is empty or contains an unknown
    constraint index. *)

val remove_flow : t -> int -> unit
(** Deregisters an active flow.  Raises [Invalid_argument] if the id is
    not currently active.  Takes effect on rates at the next
    {!refresh}. *)

val refresh : t -> unit
(** Recomputes rates to reflect all {!add_flow} / {!remove_flow} calls
    since the previous refresh.  Batching is free: any number of
    adds/removals is absorbed by a single refresh.  With the
    [`Incremental] kernel, a refresh with no pending changes is a
    no-op. *)

val rate : t -> int -> float
(** Current max-min rate of an active flow, as of the last {!refresh}.
    Raises [Invalid_argument] on an inactive id. *)

val active_flows : t -> int list
(** Active flow ids, ascending. *)

val iter_active : t -> (int -> float -> unit) -> unit
(** [iter_active t f] calls [f fid rate] for every active flow in
    ascending id order. *)

val components : t -> int list list
(** Connected components of the constraint graph, each a sorted list of
    constraint indices, ordered by smallest member — the
    {!Insp_util.Union_find.groups} canonical order.  Constraints with no
    active flows appear as singletons.  Forces a rebuild if the
    component structure is stale, so this is a test/debug helper, not a
    hot-path call.  Raises [Invalid_argument] on a [`Full] kernel, which
    does not track components. *)

val stats : t -> stats
(** Cumulative counters since {!create}.  The simulator flushes these
    into [sim.component.*] observability counters at the end of a
    run. *)
