(** Parse trees and forests (paper, Fig. 1).

    [Leaf t] holds a consumed token; [Node (x, kids)] holds a nonterminal and
    the subtrees for the symbols of one of its right-hand sides.

    [Error (at, kids)] only ever appears in trees produced by the
    error-recovery engine ({!Costar_recover.Recover}): an explicit marker
    for material the recovering parser could not derive normally.
    [at = Some s] records the symbol being repaired — an abandoned
    nonterminal with its partial children, or a terminal the parser
    inserted (no children) — while [at = None] wraps skipped input tokens
    as [Leaf] children.  The plain engines never build [Error] nodes, so
    on well-formed input recovery output is constructor-for-constructor
    identical to theirs (the differential obligation pinned by
    test/test_recover.ml). *)

open Symbols

type t =
  | Leaf of Token.t
  | Node of nonterminal * t list
  | Error of symbol option * t list

type forest = t list

(** Root symbol of a tree: the token's terminal for a leaf, the nonterminal
    for a node, the repaired symbol for an [Error] marker that has one.
    @raise Invalid_argument on [Error (None, _)] — skipped-input markers
    stand for no grammar symbol. *)
val root : t -> symbol

(** Whether the tree contains any [Error] node (i.e. is a partial tree
    emitted by the recovery engine). *)
val has_errors : t -> bool

(** Frontier of the tree, left to right: the consumed tokens.  [Error]
    markers contribute the tokens they wrap (skipped input), so the yield
    of a recovered partial tree still lists the input the parser went
    over; inserted-terminal markers contribute nothing. *)
val yield : t -> Token.t list

val yield_forest : forest -> Token.t list

(** Number of nodes and leaves. *)
val size : t -> int

val depth : t -> int

(** Number of tokens in the frontier. *)
val width : t -> int

(** Equality by shape: nodes by nonterminal, leaves by terminal and
    lexeme. *)
val equal : t -> t -> bool

val compare : t -> t -> int

(** Collect every nonterminal labelling a node. *)
val nonterminals : t -> Int_set.t

(** [pp g] renders a tree with symbol names resolved against [g], in
    s-expression style: [(S (A 'a' 'b') 'd')]. *)
val pp : Grammar.t -> Format.formatter -> t -> unit

val to_string : Grammar.t -> t -> string

(** GraphViz DOT rendering of a parse tree (one node per tree node). *)
val to_dot : Grammar.t -> t -> string
