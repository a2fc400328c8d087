(** LL prediction (paper, §3.4): the slow, precise simulation.

    LL subparsers carry a copy of the parser's full remaining suffix stack,
    so their verdicts are exact with respect to the current machine state:

    - [Unique_pred i]: production [i] is the only right-hand side that may
      lead to a successful parse (Lemma 5.5);
    - [Ambig_pred i]: production [i] completes the remaining input, and so
      does at least one other — the input word is ambiguous;
    - [Reject_pred]: no right-hand side completes the remaining input. *)

open Costar_grammar
open Costar_grammar.Symbols

val closure :
  Grammar.t -> Analysis.t -> Config.ll list -> (Config.ll list, Types.error) result

val move : Analysis.t -> Config.ll list -> terminal -> Config.ll list

(** [init_configs g anl x conts] launches one subparser per right-hand side
    of [x]; [conts] is the parser's remaining suffix stack below the
    decision point (unprocessed symbols only, topmost first), interned into
    [anl]'s frame table. *)
val init_configs :
  Grammar.t -> Analysis.t -> nonterminal -> symbol list list -> Config.ll list

(** [predict g anl x conts w i] runs exact LL prediction over the array
    cursor the machine runs on: lookahead reads [w.kinds] from position
    [i].  The verdict is paired with the lookahead depth at which it was
    reached (tokens examined past [i]). *)
val predict :
  Grammar.t ->
  Analysis.t ->
  nonterminal ->
  symbol list list ->
  Word.t ->
  int ->
  Types.prediction * int
