(** Static analysis of ALL(star) prediction decisions (paper §3.4–3.5,
    offline).

    At runtime, adaptive prediction walks a lookahead DFA whose states are
    interned SLL configuration sets and whose transitions are closure∘move
    steps along the actual input.  This module runs the {e same} simulation —
    the same {!Costar_core.Sll} closure and move, the same
    {!Costar_core.Cache} interning — but breadth-first over {e every}
    terminal instead of along one input, per decision nonterminal, bounded by
    a lookahead depth [k] and a state budget.  Because the exploration and
    the runtime share their code and their cache, every state the analyzer
    reports is byte-identical to the state the runtime would intern, and the
    fully explored cache doubles as a lookahead table saved ahead of time
    ({!Costar_core.Cache.save_image}).

    For each decision the analyzer computes:

    - the minimal [k] for which the decision is SLL(k), up to the bound —
      or that no finite [k] suffices (a pending-state cycle in the DFA, or a
      confirmed ambiguity);
    - which alternative {e pairs} collide: configurations that share their
      (frames, context) can never again be separated by lookahead, with a
      shortest distinguishing-prefix witness reconstructed from the BFS
      parent chain, and — where a shortest-yield completion of the witness
      is confirmed ambiguous by the Earley derivation-counting oracle — a
      concrete ambiguous sentence;
    - whether runtime LL fallback is possible: exactly when a reachable
      pending state has two or more accepting configurations, the SLL
      verdict on some input is [Ambig_pred] and {!Costar_core.Predict}
      re-predicts in LL mode.  Decisions without such a state provably never
      leave SLL mode (property-tested against the instrumented runtime). *)

open Costar_grammar
open Costar_grammar.Symbols

(** Lookahead classification of one decision. *)
type lookahead =
  | Sll_k of int
      (** Minimal [k]: after at most [k] tokens every DFA path from the
          decision's initial state has decided (uniquely or by rejecting).
          [Sll_k 0] means the initial closure already decides. *)
  | Beyond of int
      (** Still undecided somewhere at the exploration bound [k] (or the
          state budget); a larger bound might still classify it. *)
  | Cyclic
      (** The explored DFA contains a cycle of undecided states: some input
          drives prediction forever without deciding, so the decision is
          SLL(k) for no finite [k] (e.g. Fig. 2's [S], which must scan to
          the end of an arbitrarily long input). *)
  | Ambiguous
      (** A collision was confirmed as a genuine ambiguity by the Earley
          oracle: no amount of lookahead can ever decide. *)

(** A colliding pair of alternatives. *)
type conflict = {
  alts : int * int;
      (** Production indices (grammar order, as in {!Grammar.prod}) of the
          two colliding alternatives, smaller first. *)
  witness : terminal list;
      (** Shortest token prefix driving the DFA from the decision's initial
          state to a state where the pair collides (BFS order ⇒ minimal). *)
  at_eof : bool;
      (** The collision involves accepting configurations: if the input ends
          here, SLL answers [Ambig_pred] and the runtime falls back to LL. *)
  ambiguous_word : terminal list option;
      (** A complete sentence of the decision nonterminal with ≥ 2 distinct
          parse trees (witness prefix + shortest-yield completion), present
          iff the Earley oracle confirmed it.  This is the A003 evidence. *)
}

type decision = {
  nt : nonterminal;
  n_alts : int;  (** number of alternatives (≥ 2 by construction) *)
  lookahead : lookahead;  (** meaningless when [error] is set *)
  conflicts : conflict list;  (** sorted by [alts] *)
  uses_stable_return : bool;
      (** Some explored closure forked past the truncated stack to static
          caller continuations (§3.5) — the SLL-vs-LL overapproximation is
          exercised somewhere in this decision's DFA. *)
  states : int;  (** distinct DFA states reached during exploration *)
  truncated : bool;  (** state budget exhausted before the depth bound *)
  error : Costar_core.Types.error option;
      (** Left recursion reachable from the decision: prediction (static or
          runtime) cannot simulate it.  The runtime hits the same error. *)
}

type t = {
  g : Grammar.t;
  k_bound : int;
  decisions : decision list;  (** in nonterminal order; only decisions *)
  cache : Costar_core.Cache.t;
      (** The DFA cache after exploring every decision: initial
          states, every state reachable within the bounds, and their
          transitions on every terminal — a superset of what any single
          parse warms up, ready for {!Costar_core.Cache.save_image}. *)
}

val default_k : int
val default_max_states : int
val default_max_configs : int

(** [analyze g] explores every decision of [g].

    [k] bounds the lookahead depth (default {!default_k}); [max_states]
    bounds the states explored per decision (default {!default_max_states});
    [max_configs] bounds the configuration-set size a state may have and
    still be expanded (default {!default_max_configs}) — ambiguous
    grammars can grow the simulated-stack set exponentially with depth,
    and a state past this bound is treated as truncation, exactly like
    [max_states]; [oracle:false] skips the Earley confirmation of
    candidate ambiguous words (conflicts are still reported, with
    [ambiguous_word = None]); [cache] is the DFA cache to extend in place
    (default: a fresh one; either way it is the result's [cache]); [analysis]
    reuses an existing {!Analysis.t} for [g]. *)
val analyze :
  ?k:int ->
  ?max_states:int ->
  ?max_configs:int ->
  ?oracle:bool ->
  ?cache:Costar_core.Cache.t ->
  ?analysis:Analysis.t ->
  Grammar.t ->
  t

(** The decision record for a nonterminal, if it is a decision point. *)
val decision_for : t -> nonterminal -> decision option

(** [ll_fallback_possible d]: some input makes the runtime's SLL verdict
    [Ambig_pred], triggering the exact-LL re-prediction — i.e. [d] has a
    conflict with [at_eof = true]. *)
val ll_fallback_possible : decision -> bool

val lookahead_to_string : lookahead -> string

(** Render a witness as space-separated terminal names ("ε" if empty). *)
val witness_string : Grammar.t -> terminal list -> string

(** Terminal word → token list (each terminal's name as its lexeme), for
    feeding witnesses back into parsers and oracles. *)
val tokens_of_terms : Grammar.t -> terminal list -> Token.t list
