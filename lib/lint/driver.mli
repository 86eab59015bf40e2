(** File walking, baseline handling and report formatting for
    [insp_lint] — everything between {!Engine.lint_file} /
    {!Deep.analyze} and the process exit code.

    Paths in findings are normalized to repo-relative form (leading
    ["./"]/["../"] segments dropped), so the committed baseline and the
    reports agree whether the driver runs from the repo root, from
    dune's sandbox, or from [_build/default/test]. *)

type format = Text | Csv | Json

type config = {
  format : format;
  baseline : string option;  (** path to the baseline file, if any *)
  update_baseline : bool;
      (** rewrite the baseline with the current findings and exit 0 *)
  roots : string list;  (** files or directories to lint *)
  only : string list option;
      (** [--quick]: normalized paths to restrict linting to; entries
          may be directories (they select everything beneath them) *)
  deep : bool;
      (** also run the whole-program T1–T3 pass over the typedtrees
          under [cmt_root] (DESIGN.md §14) *)
  cmt_root : string;  (** where to look for [.cmt]/[.cmti] files *)
  allow_stale : bool;
      (** tolerate sources newer than their typedtree (used by the
          [dune runtest] rule, whose dependencies guarantee freshness;
          without it staleness is an exit-2 diagnostic) *)
}

val normalize : string -> string
(** Drop empty, ["."] and [".."] path segments: ["../lib/x.ml"] →
    ["lib/x.ml"]. *)

val paths_of_porcelain : string list -> string list
(** Normalized paths from [git status --porcelain] output: modified,
    added {e and} untracked entries; renames yield their new name;
    untracked directories stay as one entry selecting their subtree.
    Sorted, deduplicated. *)

val lint_roots : ?only:string list -> string list -> Rule.finding list
(** Collect and lint; findings carry normalized paths and are sorted. *)

val load_baseline : string -> string list
(** Baseline keys ({!Rule.baseline_key}) from a file; blank lines and
    [#] comments are ignored.  A missing file is an empty baseline. *)

val apply_baseline : keys:string list -> Rule.finding list -> Rule.finding list
(** The findings whose key is not grandfathered. *)

val run : config -> int
(** Lint (both passes when [deep]), print new findings on stdout in the
    configured format, and return the exit code: 0 clean (or baseline
    updated), 1 new findings, 2 on IO/parse errors, missing or stale
    typedtrees. *)
