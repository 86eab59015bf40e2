(** Data model and rendering for reproduced paper figures.

    A figure is a family of series (one per heuristic) over an x axis
    (tree size N, computation factor alpha, download frequency...).  Each
    point is the mean cost over the seeds whose run was feasible;
    a point is reported missing ([None]) when fewer than half the seeds
    produced a feasible mapping — mirroring the paper's curves that stop
    where "almost no feasible mapping can be found". *)

type cell = {
  mean_cost : float option;
  successes : int;
  attempts : int;
}

type point = { x : float; cells : (string * cell) list }

type t = {
  id : string;  (** e.g. "fig2a" *)
  title : string;
  xlabel : string;
  points : point list;
  notes : string list;
}

val cell_of_costs : attempts:int -> float list -> cell
(** Mean over the feasible costs; [mean_cost = None] when
    [2 * successes < attempts]. *)

val render : t -> string
(** Aligned text table followed by a CSV block. *)

val series_names : t -> string list
(** Column order of the first point. *)

val winner_counts : t -> (string * int) list
(** Per heuristic: at how many x points it achieves the (strictly)
    lowest plotted mean cost.  Used to summarise rankings. *)
