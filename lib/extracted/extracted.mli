(** An "extraction-style" CoStar: the same ALL(star) algorithm as
    {!Costar_core}, implemented the way code extracted from Coq looks —
    string-named symbols compared lexicographically, AVL-tree maps and sets
    from the standard library everywhere, no interning, no arrays, no hash
    tables.

    Two purposes (DESIGN.md, experiment E8):

    - it reproduces the paper's §6.1 profiling observation that symbol
      comparison functions ([compareNT]) dominate execution time on large
      grammars, quantified here as the slowdown of this implementation
      relative to the interned-integer core on each benchmark grammar;
    - it is a second, independent implementation of the parser, and the
      test suite checks that both produce identical verdicts and trees on
      random grammars (differential testing).

    The implementation is deliberately self-contained: it shares no code
    with [Costar_core] beyond the token type. *)

open Costar_grammar

type symbol =
  | T of string
  | NT of string

type tree =
  | Leaf of string * string  (** terminal name, lexeme *)
  | Node of string * tree list

type result =
  | Unique of tree
  | Ambig of tree
  | Reject
  | Error of string

type grammar

(** Convert an interned grammar to the string-symbol representation. *)
val of_grammar : Grammar.t -> grammar

(** Build directly from (lhs, rhs) pairs in priority order. *)
val make : start:string -> (string * symbol list) list -> grammar

(** The SLL DFA cache prediction builds (purely functional maps, held
    in a mutable cell so that it can outlive a parse).  A cache belongs
    to the one grammar it was first used with. *)
type cache

(** An empty cache. *)
val new_cache : unit -> cache

(** [parse g w] where tokens are (terminal name, lexeme) pairs.  The
    parse starts from [cache] and leaves in it every DFA state and
    transition it built; without [cache] it starts empty, as the
    extracted code does.  Cache contents never change the result. *)
val parse : ?cache:cache -> grammar -> (string * string) list -> result

(** Run on a [Costar_grammar] token list by resolving terminal names. *)
val parse_tokens : ?cache:cache -> grammar -> Grammar.t -> Token.t list -> result
