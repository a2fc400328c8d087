(** Multi-error recovery over the interned machine (ROADMAP item 2).

    The engine runs the parser's own loop,
    {!Costar_core.Machine.multistep}; as long as no step rejects, a
    recovering run and a plain one visit the same states, so on
    well-formed input recovery
    produces a bit-identical tree and an identical DFA-cache evolution
    (the differential obligation of test/test_recover.ml).  When a step
    rejects, the structured {!Costar_core.Machine.fail_reason} is turned
    into a coded, span-carrying diagnostic (P001–P003) and the machine
    state is repaired instead of abandoned:

    - {b insert} — a single missing terminal is synthesized (no input
      consumed) when a bounded trial proves the repaired parse consumes
      real input afterwards;
    - {b delete} — the offending token is dropped, again trial-checked;
    - {b panic} — input is skipped to the nearest token in a resume set
      built from the {!Costar_grammar.Analysis} FIRST and sync/anchor sets of
      the suspended stack frames, popping frames whose productions are
      abandoned as explicit {!Costar_grammar.Tree.Error} nodes;
    - {b unwind} — at end of input the whole stack is closed off with
      error nodes and a partial tree is produced.

    Termination is the §4 argument extended to repairs: every machine
    step and every committed repair strictly decreases the lexicographic
    (remaining tokens, §4 stack score, stack height) measure — deletion
    and skipping consume input; insertion and symbol drops shorten the
    top suffix at equal input; frame pops shrink the score or the
    height.  [~verify_measure:true] checks this executable bound after
    every transition (the fuzz gate's no-hang obligation). *)

open Costar_grammar
open Costar_grammar.Symbols
module D := Costar_lint.Diagnostic

(** How the parse was repaired at one failure point. *)
type repair =
  | Inserted of terminal
      (** a synthesized terminal stands in for a missing token *)
  | Deleted  (** the offending token was dropped *)
  | Dropped of symbol
      (** the undrivable head symbol was abandoned without consuming
          input *)
  | Skipped of { tokens : int; popped : int }
      (** panic mode: [tokens] input tokens skipped after popping
          [popped] stack frames *)
  | Closed of { popped : int }
      (** end of input: the remaining stack was unwound into error
          nodes *)
  | Gave_up of { tokens : int; popped : int }
      (** the error limit was reached; the rest of the input was
          abandoned in one step *)

(** One recovery event, in input order. *)
type event = {
  diag : D.t;  (** the P-coded diagnostic for the failure *)
  repair : repair;
  at : int;  (** token index the failure was detected at *)
  consumed : int;
      (** tokens consumed by the repair ([at .. at+consumed-1]); 0 for
          insertions and drops *)
}

type verdict =
  | Recovered of Tree.t
      (** a tree over the whole input; contains {!Tree.Error} nodes iff
          any event fired *)
  | Recovered_ambig of Tree.t  (** same, with an ambiguous prediction *)
  | Fatal of Costar_core.Types.error
      (** machine error (left recursion): not recoverable *)

type outcome = {
  verdict : verdict;
  events : event list;  (** chronological; [] iff the input was clean *)
}

(** A recovery engine: a prepared parser, whose grammar analysis supplies
    the FIRST and sync/anchor sets. *)
type t

val make : Costar_core.Parser.t -> t
val parser_of : t -> Costar_core.Parser.t

(** [run_word t w] parses the input word [w] with recovery.  [?file] tags
    diagnostics; [?max_errors] (default 100) bounds the number of repairs
    before the engine gives up in one final skip; [?verify_measure]
    (default false) asserts the strict lexicographic measure decrease
    after every step and repair, raising [Failure] on any violation (test
    harnesses only — it walks the stack at every transition); [?cache]
    (default the parser's base cache) is the DFA cache predictions read
    and extend, and [?inspect] sees every state the loop resumes from —
    each machine step's result and each committed repair — exactly as in
    {!Costar_core.Parser.run_word}. *)
val run_word :
  ?file:string ->
  ?max_errors:int ->
  ?verify_measure:bool ->
  ?cache:Costar_core.Cache.t ->
  ?inspect:(Costar_core.Machine.ctx -> Costar_core.Machine.state -> unit) ->
  t ->
  Word.t ->
  outcome

(** The diagnostics of an outcome, in event order. *)
val diagnostics : outcome -> D.t list

(** Render a P004 lexical-error diagnostic from a scanner message of the
    form ["lexical error at line L, column C: ..."] (the position is
    parsed back out when present), so the CLI can push lex failures
    through the same renderer/exit policy as parse failures. *)
val lex_diag : ?file:string -> string -> D.t
