(** Executable counterpart of the derivation relations of the paper's Fig. 3.

    [tree_derives g s w v] decides the judgment "symbol [s] derives word [w],
    producing tree [v]" (written [s --v--> w] in the paper); [forest_derives]
    decides the sentential-form variant [gamma --f--> w].  These checkers are
    the soundness specification used by the test suite: whenever the parser
    returns a tree, the tree must satisfy this relation. *)

open Symbols

(** Well-formedness of a tree's shape with respect to a grammar: every
    node's children's roots spell out one of its right-hand sides. *)
val well_formed : Grammar.t -> Tree.t -> bool

val tree_derives : Grammar.t -> symbol -> Token.t list -> Tree.t -> bool

val forest_derives :
  Grammar.t -> symbol list -> Token.t list -> Tree.forest -> bool

(** [recognizes_start g w v] is [tree_derives g (NT (Grammar.start g)) w v]. *)
val recognizes_start : Grammar.t -> Token.t list -> Tree.t -> bool
