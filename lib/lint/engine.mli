(** The AST analysis core of [insp_lint].

    Files are parsed with the compiler's own untyped parser
    ([compiler-libs.common]: {!Parse.implementation}) and walked with
    {!Ast_iterator}; no external dependency and no typing pass.  All
    checks are therefore {e syntactic} approximations of the semantic
    disciplines they guard — deliberate: they run on every
    [dune runtest] and must be fast and dependency-free.  See
    DESIGN.md §9 for the rule definitions. *)

type scope = Lib | Bin | Bench | Test
(** Which part of the repo a file belongs to; rules are scoped
    (P1/P2 fire only in [Lib], D3 is exempt in [Bench], D1 is exempt
    under [lib/util]).  Unknown roots are treated as [Lib] — the
    strictest scope. *)

val under_lib_util : string -> bool
(** D1's exemption: the seeded PRNG internals under [lib/util]. *)

val wall_clock_sanctioned : string -> bool
(** D3's (and T2's) sanction: wall-clock reads are legitimate exactly in
    [bench/] and the blessed [lib/obs/clock.ml]. *)

val engine_library : string -> bool
(** The engine libraries whose outputs must be bit-reproducible —
    [lib/{mapping,heuristics,lp,sim,serve,faults}].  Scope of D6 and of
    the interprocedural T2 entry-point taint (DESIGN.md §14). *)

exception Parse_error of string
(** Raised when a file does not lex/parse as an OCaml implementation. *)

val lint_source : file:string -> string -> Rule.finding list
(** Run every AST rule (D1, D2, D3, D4, F1, P1) on one implementation
    source.  [file] is the path used for scoping and reporting; the
    source itself is taken from the string, so tests can lint inline
    fixtures.  Comment and attribute suppressions are honoured.
    Findings are sorted by {!Rule.compare_finding}. *)

val lint_file : ?display:string -> string -> Rule.finding list
(** Read [path] from disk and lint it; [display] (default the path
    itself) is the name used in findings.  Adds the P2 check: a [Lib]
    implementation with no sibling [.mli] on disk yields a P2 finding
    at line 1 unless that line carries a suppression. *)
