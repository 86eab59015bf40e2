(** Validation of an allocation against the paper's constraints (1)–(5)
    plus structural well-formedness.

    The checker is the single source of truth for feasibility: every
    heuristic solution and every exact solution is passed through it in
    tests, and the discrete-event simulator is validated against its
    verdicts. *)

type violation =
  | Unassigned_operator of int
      (** an operator of the application has no processor *)
  | Missing_download of { proc : int; object_type : int }
      (** a processor hosts an al-operator but has no source for one of
          its objects *)
  | Extraneous_download of { proc : int; object_type : int }
      (** a download of an object no hosted operator needs *)
  | Duplicate_download of { proc : int; object_type : int }
      (** the same object type appears more than once in a processor's
          download plan (different servers), double-counting its NIC
          load *)
  | Not_held of { proc : int; object_type : int; server : int }
      (** download points at a server that does not carry the object *)
  | Compute_overload of { proc : int; load : float; capacity : float }
      (** constraint (1) *)
  | Nic_overload of { proc : int; load : float; capacity : float }
      (** constraint (2) *)
  | Server_card_overload of { server : int; load : float; capacity : float }
      (** constraint (3) *)
  | Server_link_overload of {
      server : int;
      proc : int;
      load : float;
      capacity : float;
    }  (** constraint (4) *)
  | Proc_link_overload of {
      proc_a : int;
      proc_b : int;
      load : float;
      capacity : float;
    }  (** constraint (5) *)

val check :
  Insp_tree.App.t -> Insp_platform.Platform.t -> Alloc.t -> violation list
(** All violations, structural first.  Empty list = feasible. *)

(** {1 The checker core}

    {!check} is the one-application case of a checker parameterised by
    what differs between a tree and an operator DAG
    ({!Insp_multi.Dag_check}): each processor's demand and the streams
    it receives.  The structural pass, the download-plan terms of (2),
    constraints (3)/(4) and the per-pair accumulation of (5) are shared. *)

type view = {
  n_nodes : int;  (** node ids are [0 .. n_nodes - 1]; unassigned ones are reported *)
  objects : Insp_tree.Objects.t;  (** object rates of the download plans *)
  needed : int -> int list;
      (** distinct object types processor [u]'s nodes read, sorted *)
  demand : int -> Demand.t;
      (** processor [u]'s demand; (1) reads [compute], (2) reads
          [comm_in] and [comm_out] (its download term comes from the
          plan) *)
  iter_streams : (int -> int -> float -> unit) -> unit;
      (** [iter_streams f] calls [f u v flow] once per stream processor
          [u] receives from a distinct processor [v] (MB/s); the calls
          fix the summation order of (5) *)
}

val check_view :
  view -> Insp_platform.Platform.t -> Alloc.t -> violation list
(** All violations of the view, in {!check}'s order. *)

val proc_demand : Insp_tree.App.t -> Alloc.t -> int -> Demand.t
(** Demand of processor [u]'s operator group (same arithmetic the
    heuristics use). *)

val proc_download_rate : Insp_tree.App.t -> Alloc.t -> int -> float
(** MB/s of basic-object downloads entering processor [u] according to
    its download plan. *)

val pair_flow : Insp_tree.App.t -> Alloc.t -> int -> int -> float
(** Total MB/s exchanged between two distinct processors over their
    link: child-to-parent flows in both directions (constraint (5)'s
    left-hand side). *)

val pp_violation : Format.formatter -> violation -> unit

val explain : violation list -> string
(** Multi-line human-readable report ("feasible" when empty). *)
