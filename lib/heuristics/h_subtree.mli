(** The Subtree-Bottom-Up operator-placement heuristic (paper §4.1) —
    the paper's overall winner.

    Buys one most-expensive processor per al-operator (operator with at
    least one object leaf) and assigns each al-operator to its own
    processor.  Then merges bottom-up: each processor, deepest first,
    repeatedly allocates the parents of its operators to itself — adding
    an unassigned parent directly, or absorbing the parent's current
    processor wholesale and returning it to the store.  Rounds repeat
    until no processor grows.  Operators that could not be merged
    anywhere get fresh most-expensive processors (children first, each
    trying its children's processors before buying). *)

val run :
  ?grouping_rounds:int ->
  Insp_util.Prng.t ->
  Insp_tree.App.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result
(** [grouping_rounds] bounds the grouping fallback used for leftover
    operators (see {!Common.acquire_with_grouping}; default 8, 1 is the
    paper's single pairing step).  Raises [Invalid_argument] when it is
    below 1. *)
