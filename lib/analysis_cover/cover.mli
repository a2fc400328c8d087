(** Decision-coverage universe: every production, SLL decision point,
    cached prediction-DFA edge, and lexer-DFA class transition, each tagged
    statically coverable or dead (C001–C003) from the grammar dataflow facts,
    then filled in with runtime hit counts.  See DESIGN.md §12. *)

open Costar_grammar
open Costar_grammar.Symbols

type target =
  | Prod of int  (** production index, as in {!Grammar.prod} *)
  | Decision of nonterminal  (** a multi-alternative prediction ran *)
  | Edge of int * terminal  (** (analyzer-cache DFA state, lookahead) *)
  | Lex_trans of int * int  (** (lexer DFA state, byte class) *)

type status =
  | Coverable
  | Dead of { code : string; reason : string }

type entry = {
  target : target;
  status : status;
  mutable hits : int;
}

type t = {
  g : Grammar.t;
  anl : Analysis.t;
  parser_ : Costar_core.Parser.t;
  result : Costar_predict_analysis.Analyze.t;
  scanner : Costar_lex.Scanner.t option;
  dfa : Costar_lex.Dfa.t option;
  n_states : int;  (** universe DFA states (the cache may grow past this) *)
  u_reach : bool array;
      (** usefully reachable: reachable through occurrences whose sibling
          symbols are all productive, so a complete sentence exists around
          every such occurrence (strictly stronger than REACHABLE) *)
  u_why : (int * int) array;  (** (prod, pos) parent edge of [u_reach] *)
  exit_yield : terminal list option array;
      (** per nonterminal, a yield ending in a committed exit token — the
          sibling fill that realizes exit-freedom (shortest yields often
          vanish it); [None] when the nonterminal is not exit-free *)
  owner : int array;  (** DFA state -> owning decision nonterminal, or -1 *)
  entries : entry array;
  decision_ix : (int, int) Hashtbl.t;
  edge_ix : (int * int, int) Hashtbl.t;
  lex_ix : (int * int, int) Hashtbl.t;
}

(** Build the universe: runs the parser's grammar analysis and the
    offline prediction analyzer, then enumerates and statically tags every
    target.  Pass [scanner] to include the lexer-transition universe. *)
val make : ?scanner:Costar_lex.Scanner.t -> Grammar.t -> t

(** Parse under coverage instrumentation, through the analyzer's own cache
    (so runtime DFA-edge ids coincide with universe ids), folding the hits
    into the universe.  Counts accrue even when the parse rejects. *)
val mark_word : t -> Word.t -> Costar_core.Parser.result

val mark_tokens : t -> Token.t list -> Costar_core.Parser.result

(** Byte-level lexer replay (maximal munch, first-rule-wins) crediting the
    class transitions along each accepted lexeme; overrun suffixes that are
    backtracked out of do not count.  Stops at the first lexical error.
    Returns the number of accepted lexemes (skips included); [0] when the
    universe has no scanner. *)
val mark_bytes : t -> string -> int

type kind = K_prod | K_decision | K_edge | K_lex

val kind_of : target -> kind
val kind_name : kind -> string

type summary = {
  covered : int;
  coverable : int;
  dead : int;
}

(** Per-kind tallies, in fixed kind order ([K_lex] omitted when the
    universe has no scanner). *)
val summary : t -> (kind * summary) list

(** Coverable targets with zero hits. *)
val residual : t -> entry list

val describe : t -> target -> string

(** C001–C003 diagnostics for the statically dead targets, one per entry,
    with the deadness reason as a note. *)
val dead_diags : ?file:string -> t -> Costar_lint.Diagnostic.t list
