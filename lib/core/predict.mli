(** [adaptivePredict] (paper, §3.4): SLL first, failing over to LL when the
    SLL result may be unsound.

    SLL's [Unique_pred] and [Reject_pred] are trusted (SLL overapproximates
    LL); an SLL [Ambig_pred] merely means several candidates survived, so
    prediction recommences in exact LL mode, whose [Ambig_pred] genuinely
    witnesses an ambiguous input.

    Which decisions can ever take the fallback path is statically decidable:
    the offline analyzer ([lib/analysis_predict]) explores the same SLL DFA
    breadth-first and flags exactly the decisions with a reachable pending
    state whose accepting configurations disagree — everywhere else
    [adaptive_predict] provably stays in SLL mode (property-tested in
    [test/test_predict_analysis.ml]). *)

open Costar_grammar
open Costar_grammar.Symbols

(** [adaptive_predict g a cache x ~conts s1 s2 w i] chooses a right-hand
    side for decision nonterminal [x], reading lookahead from position [i]
    of the array cursor [w] and extending [cache] as it goes.
    [conts s1 s2] is the unprocessed remainder of the suffix stack below
    the decision.  Only the (rare) LL fallback calls it: materializing it
    eagerly would cost O(stack depth) on every push — quadratic on deeply
    right-recursive inputs — and passing the caller's stack in two
    arguments with a top-level accessor, rather than a thunk or a pair,
    lets a push allocate nothing.

    The first thing it does is read the cache's first-token table
    ({!Cache.decision}): a hit is the whole prediction.  On a miss it runs
    the general path and then teaches the table what the DFA now decides
    at this column ({!Cache.learn}).  Coverage recording
    ([Instr.cov_enabled]) bypasses the table.

    The verdict is paired with the lookahead depth it was reached at
    (exact on [Reject_pred], which is what recovery diagnostics consume;
    see {!Sll.predict}).  A table hit, a single-alternative decision and a
    decided warm SLL hit return a shared pair and allocate nothing. *)
val adaptive_predict :
  Grammar.t ->
  Analysis.t ->
  Cache.t ->
  nonterminal ->
  conts:('a -> 'b -> symbol list list) ->
  'a ->
  'b ->
  Word.t ->
  int ->
  Types.prediction * int
