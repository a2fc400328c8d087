(** Static grammar analyses.

    One worklist fixed-point engine computes the classical facts (nullable /
    FIRST / FOLLOW / end-of-input follow / reachable / productive) and the
    per-nonterminal sync/anchor sets.  Each fact records the justification
    that first derived it; justifications only ever reference facts
    discovered strictly earlier, so every fact expands into a finite witness
    derivation — the [*_witness] functions below — for explainable
    diagnostics (the F-codes of {!Costar_lint}).

    Alongside them, two CoStar-specific artifacts: the {e callers} map,
    listing every grammar occurrence of a nonterminal together with the
    right-hand-side suffix that follows it, and {!follow_end}, the
    nonterminals whose yield may end the input word — together the static
    input to SLL prediction's "stable return" simulation (paper, §3.5).

    The value is immutable once {!make} returns (the frame interner aside,
    see {!Frames}).  The engine is tested against a naive iterate-until-
    no-change transcription of the inductive rules and against brute-force
    derivation sampling with Earley-confirmed membership
    (test/test_flow.ml). *)

open Symbols

type t

val make : Grammar.t -> t

val grammar : t -> Grammar.t

(** {1 Classical analyses} *)

val nullable : t -> nonterminal -> bool

(** A sequence of symbols is nullable iff every symbol in it is a nullable
    nonterminal. *)
val nullable_seq : t -> symbol list -> bool

(** FIRST set over dense terminal ids (the analysis' own storage: do not
    mutate). *)
val first : t -> nonterminal -> Bitset.t

(** FIRST of a sentential form (fresh bitset). *)
val first_seq : t -> symbol list -> Bitset.t

(** FOLLOW set of a nonterminal (terminals only; see {!follow_end}).  Do
    not mutate. *)
val follow : t -> nonterminal -> Bitset.t

(** [follow_end a x] iff end-of-input may follow [x], i.e. some derivation
    from the start symbol can end with the yield of [x] (the start symbol
    qualifies; if [y] does and [y -> alpha x beta] with [beta] nullable,
    then [x] does). *)
val follow_end : t -> nonterminal -> bool

(** Sync/anchor set: FIRST ∪ FOLLOW.  A recovering parser inside [x] skips
    input until a member (restart [x] on FIRST, give it up on FOLLOW) —
    end-of-input is always an implicit anchor.  Do not mutate. *)
val sync : t -> nonterminal -> Bitset.t

val reachable : t -> nonterminal -> bool
val productive : t -> nonterminal -> bool

(** {1 LL(1) cells} *)

(** [ll1_cells a] is [(cells, eof)], the candidate productions of the
    LL(1) table, computed once by {!make}: [cells.(x * num_terminals + t)]
    lists the productions of [x] whose PREDICT set (FIRST of the right-hand
    side, plus FOLLOW([x]) when it is nullable) contains [t], and
    [eof.(x)] the nullable productions of [x] when {!follow_end} holds.
    Each cell lists a production at most once, in grammar order.  A cell
    with two or more candidates is an LL(1) conflict.  The LL(1) parser,
    Turbo's dispatch table and the prediction cache's static first-token
    decisions all read these cells.  Do not mutate. *)
val ll1_cells : t -> int list array * int list array

(** {1 CoStar-specific artifacts} *)

(** [callers a x] lists every occurrence of [x] on a right-hand side, as
    pairs [(y, beta)] where the grammar contains [y -> alpha x beta].
    Duplicate [(y, beta)] pairs are collapsed. *)
val callers : t -> nonterminal -> (nonterminal * symbol list) list

(** {!callers} with each continuation pre-interned in {!frames}: the form
    the SLL closure consumes on its hot path. *)
val callers_framed : t -> nonterminal -> (nonterminal * Frames.frame) list

(** The per-grammar frame/spine interner (built by {!make}; see
    {!Frames}). *)
val frames : t -> Frames.t

(** [min_yield a x] is a shortest terminal word derivable from [x], or [None]
    if [x] is unproductive.  Used by the prediction analyzer to complete
    conflict-witness prefixes into full candidate sentences. *)
val min_yield : t -> nonterminal -> terminal list option

(** Shortest terminal word derivable from a sentential form ([None] if any
    symbol in it is unproductive). *)
val min_yield_seq : t -> symbol list -> terminal list option

(** {1 Witness derivations}

    Each returns [None] when the fact does not hold; otherwise a list of
    rendered derivation steps ("lhs -> alpha •sym beta", the bullet marking
    the symbol the step hinges on), suitable for diagnostic notes. *)

val nullable_witness : t -> nonterminal -> string list option
val first_witness : t -> nonterminal -> terminal -> string list option
val follow_witness : t -> nonterminal -> terminal -> string list option
val reachable_witness : t -> nonterminal -> string list option
val productive_witness : t -> nonterminal -> string list option

(** [reachable_chain a x] is the raw justification chain behind
    {!reachable_witness}: the (production, position) steps from the start
    symbol down to an occurrence of [x], root first (empty for the start
    symbol itself).  Tool-facing — the coverage generator replays it to
    build a sentential context around a target. *)
val reachable_chain : t -> nonterminal -> (int * int) list option

(** [first_word a x t] is a terminal word derivable from [x] that begins
    with [t], replayed from the FIRST justification chain with
    shortest-yield completions.  [None] when [t] ∉ FIRST([x]), or when the
    justification's suffix is unproductive (the prefix fact is real, but no
    finite word completes it).  Property-tested: the word is
    Earley-accepted from [x]. *)
val first_word : t -> nonterminal -> terminal -> terminal list option
