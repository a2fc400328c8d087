(** Lowering EBNF to BNF (paper, §6.1).

    [? * +] operators and nested groups become fresh nonterminals with new
    productions, exactly as the paper's ANTLR-to-CoStar conversion tool
    does.  Repetition is expanded {e right}-recursively, so the result never
    introduces left recursion:

    - [e*] becomes [X -> eps | E X]
    - [e+] becomes [X -> E S] with [S] the star of [e] (so the
      loop-continuation decision needs one token of lookahead, as in
      ANTLR's ATN loops, rather than a rescan of [e])
    - [e?] becomes [X -> eps | E]
    - a nested alternation or group becomes [X -> alt1 | alt2 | ...]

    Identical subexpressions share one synthesized nonterminal,
    keeping the desugared grammar compact (and the Fig. 8 statistics
    honest).

    Malformed inputs (undefined references, duplicate rules, undefined start
    symbol) are reported as structured, span-carrying {!error} values — all
    of them, in source order — instead of an exception on the first. *)

module Loc = Costar_grammar.Loc

(** Structured desugaring failures.  Spans point into the textual grammar
    source when the rules came from {!Parse}; combinator-built rules carry
    {!Loc.dummy} spans. *)
type error =
  | Undefined_reference of { name : string; span : Loc.span; in_rule : string }
  | Duplicate_rule of { name : string; span : Loc.span; prev_span : Loc.span }
  | Undefined_start of { start : string }
  | Empty_grammar

val error_message : error -> string

(** All messages, ["; "]-separated. *)
val error_messages : error list -> string

(** Where a nonterminal of the desugared grammar came from: a user rule
    (span of its name at the definition site), or a synthesized rule for a
    [? * +] or group subexpression (kind, span of that subexpression, and
    the user rule it first occurred in). *)
type origin =
  | User of Loc.span
  | Synthesized of { kind : string; span : Loc.span; in_rule : string }

type provenance = (string * origin) list

val origin_of : provenance -> string -> origin option

val origin_span : origin -> Loc.span

(** [to_grammar ~start rules] lowers and builds the grammar, or reports
    every validation error. *)
val to_grammar :
  ?extra_terminals:string list ->
  start:string ->
  Ast.rule list ->
  (Costar_grammar.Grammar.t, error list) result

(** Like {!to_grammar} but also returns the nonterminal provenance table,
    which {!Costar_lint} uses to map diagnostics on synthesized
    nonterminals back to their EBNF source spans. *)
val to_grammar_with_provenance :
  ?extra_terminals:string list ->
  start:string ->
  Ast.rule list ->
  (Costar_grammar.Grammar.t * provenance, error list) result

(** Convenience for tests and trusted inputs.
    @raise Invalid_argument on any validation error. *)
val to_grammar_exn :
  ?extra_terminals:string list ->
  start:string ->
  Ast.rule list ->
  Costar_grammar.Grammar.t
