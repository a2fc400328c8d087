(** Differential fuzz runner: one input through the verified-core parser
    (reference), the extraction-style engine ({!Costar_extracted.Extracted})
    and the Earley oracle, three engines that share no prediction code,
    asserting tree agreement, strict §4-measure decrease, and position-sane
    rejection diagnostics.  See DESIGN.md §12. *)

open Costar_grammar
module Extracted = Costar_extracted.Extracted

(** The core tree in the extraction-style representation: nonterminal and
    terminal names from the grammar, lexemes from the tokens.  Raises
    [Invalid_argument] on a tree with an error node, which only recovery
    builds. *)
val to_extracted : Grammar.t -> Tree.t -> Extracted.tree

(** The engine-agreement check: the same verdict, and on [Unique]/[Ambig]
    the same tree under {!to_extracted}.  [Error]s agree with each other
    whatever their messages.  [Error msg] names the mismatch. *)
val agree_extracted :
  Grammar.t ->
  Costar_core.Parser.result ->
  Extracted.result ->
  (unit, string) result

(** The extraction-style engine for one grammar: the grammar converted
    once ({!Extracted.of_grammar}) and one DFA cache, which every {!run}
    given it extends.  The engine stays independent of the core: its
    cache is its own. *)
type extracted

val extracted : Grammar.t -> extracted

(** [Ok ()] when all engines agree and all side obligations hold;
    [Error msg] is a one-line human-readable violation report.  Pass
    [extracted] to convert the grammar and warm one DFA cache once per
    corpus rather than once per input, and [recover] to
    additionally drive the error-recovery lane: conservative on
    well-formed input (bit-identical tree, no events), productive on
    rejected input (error-marked partial tree with position-sane coded
    diagnostics), measure-verified throughout. *)
val run :
  ?extracted:extracted ->
  ?recover:Costar_recover.Recover.t ->
  Grammar.t ->
  Token.t list ->
  (unit, string) result

(** Non-empty and every quoted "line L" within one past the input's last
    line.  Exposed for tests. *)
val position_sane : Token.t list -> string -> (unit, string) result
