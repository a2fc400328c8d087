(** SLL prediction (paper, §3.4–3.5): the fast, cache-backed, imprecise
    simulation.

    SLL subparsers run on truncated stacks.  When a subparser exhausts its
    frames it simulates a return to every statically computed caller
    continuation of the context nonterminal (the "stable return" frames of
    §3.5), which makes SLL a sound overapproximation of LL: every LL-viable
    subparser has a surviving SLL counterpart.  Consequences used by
    {!Predict}:

    - [Unique_pred] is trustworthy (LL would choose the same side);
    - [Reject_pred] is trustworthy (LL would reject too);
    - [Ambig_pred] merely means "several candidates survived to end of
      input" and must be re-checked in LL mode. *)

open Costar_grammar
open Costar_grammar.Symbols

(** One closure/move round, exposed for testing.  [closure] saturates a
    configuration set to its stable configurations (top symbol a terminal,
    or accepting); it detects left recursion on nullable expansion cycles.
    Alongside the stable set it reports whether the closure performed a
    {e stable-return fork} — a simulated return past the truncated stack to
    the statically computed caller continuations (§3.5).  The fork is
    exactly where SLL overapproximates LL, so the static analyzer uses the
    flag to mark decisions whose SLL simulation leaves the exact-LL
    fragment.  The uncached primitive {!closure_cached} builds on; exposed
    so tests can check the memo against it. *)
val closure :
  Grammar.t ->
  Analysis.t ->
  Config.sll list ->
  (Config.sll list * bool, Types.error) result

(** [closure_cached g a cache configs] is {!closure} through the cache's
    per-configuration memo table: the closure of a set is the union of its
    members' closures, so single-configuration results are reusable across
    DFA states.  Closure never reads a configuration's prediction label, so
    the memo is keyed on the configuration with the label erased ([s_pred =
    0]) and a hit is relabelled: alternatives that reach the same frames and
    context share one entry.  The fork flag is memoized alongside the
    closure result, so asking costs nothing once the cache is warm. *)
val closure_cached :
  Grammar.t ->
  Analysis.t ->
  Cache.t ->
  Config.sll list ->
  (Config.sll list * bool, Types.error) result

(** [move anl configs a] advances every stable configuration whose top
    symbol is the terminal [a]; accepting configurations are dropped. *)
val move : Analysis.t -> Config.sll list -> terminal -> Config.sll list

(** Initial configuration set for a decision nonterminal: one configuration
    per right-hand side. *)
val init_configs : Grammar.t -> Analysis.t -> nonterminal -> Config.sll list

(** [prepare g a cache x] precomputes and interns the initial DFA state for
    decision nonterminal [x] (a no-op if already present, or if the closure
    detects left recursion — the error then resurfaces at prediction time).
    Running [prepare] over all decisions builds the static grammar cache
    of the paper's footnote 7. *)
val prepare : Grammar.t -> Analysis.t -> Cache.t -> nonterminal -> unit

(** [predict g a cache x w i] runs SLL prediction for decision nonterminal
    [x] against the input from position [i] of the array cursor [w],
    reading and extending the DFA cache.  Lookahead reads [w.kinds.(i)],
    [w.kinds.(i+1)], ... directly; once the relevant DFA fragment is cached,
    a prediction touches no token record and allocates nothing: a decided
    verdict comes back as the cache's shared pair ({!Cache.unique_at}).

    The result pairs the verdict with the lookahead depth at which it was
    reached (tokens examined past [i]).  The depth is exact whenever the
    verdict is [Reject_pred] or the general loop ran (cold cache,
    instrumentation); on the warm fast path a decided verdict reports depth
    0 — callers that need depth for diagnostics only need it on rejects,
    where it is always exact. *)
val predict :
  Grammar.t ->
  Analysis.t ->
  Cache.t ->
  nonterminal ->
  Word.t ->
  int ->
  Types.prediction * int
