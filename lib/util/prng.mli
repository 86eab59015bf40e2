(** Deterministic pseudo-random number generator (SplitMix64).

    All randomness in the library flows through this module so that every
    simulation is reproducible from a single integer seed.  The generator
    is splittable: {!split} derives an independent stream, which lets the
    workload generator hand isolated sub-streams to tree generation,
    object-size drawing, and server placement without them interfering. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] advances [t] once and returns a statistically independent
    generator seeded from the drawn value. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] draws uniformly from [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] draws uniformly from [\[lo, hi)].  Requires
    [lo <= hi]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].  Requires
    [bound > 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] draws uniformly from the inclusive range
    [\[lo, hi\]].  Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin flip. *)

val choose : t -> 'a array -> 'a
(** [choose t arr] picks a uniformly random element.  Requires a
    non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** [choose_list t l] picks a uniformly random element.  Requires a
    non-empty list. *)

val shuffle_list : t -> 'a list -> 'a list
(** Returns a shuffled copy of the list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)].  Requires [0 <= k <= n]. *)
