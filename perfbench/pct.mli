(** Order statistics of the benchmark's latency samples. *)

val quantile : float list -> float -> float
(** [quantile samples q], [q] in [\[0, 1\]], by linear interpolation
    between closest ranks ({!Insp.Stats.percentile}).  Requires a
    non-empty, NaN-free list. *)

val median : float list -> float

val tail_permille : int -> int option
(** The highest percentile of the ladder p99, p90, p50 (in per mille)
    with at least ten of [n] samples beyond it; [None] below 20
    samples. *)

val tail : float list -> int * float
(** [(pm, value)]: the percentile chosen by {!tail_permille} for the
    sample count and its value, falling back to the median (500) when
    none qualifies.  Requires a non-empty list. *)

val ladder : int list
(** The candidate tail percentiles in per mille, highest first. *)
