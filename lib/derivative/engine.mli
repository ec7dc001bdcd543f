(** Priority-faithful Brzozowski-derivative matcher.

    The semantic oracle for the extended operators: it evaluates
    intersection, complement and lookarounds natively and reproduces
    PCRE leftmost-first spans on the POSIX-ERE fragment (it is
    differentially tested span-for-span against the plan executor).
    No backtracking. Cost of one scan ({!find_all}, or one {!search})
    over n bytes: each look-free lookaround body is decided at every
    position by a single O(n) pass, after which each query is one load;
    every start position tried costs one derivative step per byte the
    attempt reads, and when the pattern cannot match the empty string,
    starts whose byte cannot begin a match are skipped. A look-bearing
    (nested) lookaround body is still evaluated per position. *)

open Alveare_frontend
module Semantics = Alveare_engine.Semantics

type t
(** A compiled derivative matcher: an interning arena plus the root
    node. Safe to share across domains — the arena mutex serialises
    interning and cache access. *)

val of_ast : Ast.t -> t
(** Compile a (possibly extended) frontend AST. *)

val of_pattern : ?extended:bool -> string -> t
(** Parse and compile; [extended] (default true) enables [&], [(?~r)]
    and lookaround syntax. Raises on malformed patterns (see
    {!Alveare_frontend.Desugar.pattern_exn}). *)

val state_count : t -> int
(** Number of distinct nodes interned so far (grows as inputs are
    scanned and new derivative states appear). *)

val look_free : t -> bool
(** True when the pattern contains no lookaround — all caching is then
    position-independent and lives in the arena. *)

val match_at : t -> string -> int -> int option
(** [match_at eng input start] returns the end offset of the
    leftmost-first preferred match beginning exactly at [start], or
    [None]. Raises [Invalid_argument] if [start] is outside
    [0..length input]. *)

val search : ?from:int -> t -> string -> Semantics.span option
(** Leftmost-first search: the match at the smallest start position
    [>= from] (default 0). *)

val find_all : t -> string -> Semantics.span list
(** Non-overlapping scan via {!Semantics.next_scan_position} — the same
    discipline as the plan executor, so span lists compare exactly. *)

val matches : t -> string -> bool

val arena : t -> Regex.t
val root : t -> Regex.node

val deriv_free : Regex.t -> Regex.node -> char -> Regex.node
(** Position-independent derivative of a look-free node, for
    {!Enumerate} and the mid-end lowering. The arena lock must be held
    by the caller. Raises [Invalid_argument] on a look-bearing node. *)
