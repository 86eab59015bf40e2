(** The Comp-Greedy operator-placement heuristic (paper §4.1).

    Operators are treated in non-increasing computational demand [w_i].
    Each round buys the most expensive processor for the heaviest
    unassigned operator (with the Random heuristic's grouping fallback if
    it does not fit), then fills the remaining capacity with further
    unassigned operators in non-increasing [w_i] order.

    The implementation drives both the round seeds and the fill walk
    from candidate queues (DESIGN.md §16): a lazy-deletion heap with
    generation stamps picks each round's heaviest unassigned operator,
    and the fill walk follows the static work-descending rank with a
    path-compressed dead-skip plus a binary-search fast-forward past
    compute-infeasible candidates.  The placement it commits is
    identical to the paper's scan-everything loop (same probes accepted,
    same order); only probes that are certain to be rejected are
    skipped. *)

val run :
  Insp_util.Prng.t ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
