(** Ablation studies for the design choices DESIGN.md documents as
    deviations from (or refinements of) the paper's text, plus the
    paper's replication-level discussion.

    Each ablation returns a rendered text table; the bench harness runs
    all of them after the main experiments. *)

val replication : ?seeds:int list -> ?copy_ranges:(int * int) list -> unit -> Figure.t
(** Paper §5 (last paragraph): the level of replication of basic objects
    on servers "has little or no effect" on the heuristics' performance.
    Sweeps the number of copies per object. *)

val grouping_rounds : ?seeds:int list -> ?ns:int list -> unit -> string
(** Iterative grouping fallback (DESIGN deviation 2): success rate and
    SBU cost with 1 round (the paper's single pairing) vs 8 rounds, as N
    grows.  One round loses feasibility at large N. *)

val merge_sweeps :
  ?seeds:int list ->
  ?cases:(int * Insp_workload.Config.size_regime) list ->
  unit ->
  string
(** Comm-Greedy merge sweeps (DESIGN deviation 3): cost with and without
    the case-(iii) re-sweep. *)

val downgrade_step : ?seeds:int list -> ?ns:int list -> unit -> string
(** The paper's downgrade step: cost of each heuristic with and without
    replacing provisioned processors by the cheapest sufficient model. *)

val all : (string * (quick:bool -> string)) list
(** [(id, render)] for every ablation: replication, grouping-rounds,
    merge-sweeps, downgrade, server-selection. *)
