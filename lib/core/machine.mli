(** The CoStar stack machine (paper, §3.2–3.3).

    The machine state is exposed transparently so that the test suite can
    check the paper's invariants (stack well-formedness, Fig. 4) and the
    termination measure (§4) after every step.  Use {!Parser} for the
    ordinary parsing API.

    Following the Coq implementation, each frame pairs the prefix-stack and
    suffix-stack components at one level: the partial parse trees of the
    processed symbols (reversed), the unprocessed symbols, and the label —
    the open nonterminal whose prediction created the frame.  Two of the
    paper's components are derived rather than stored, so a step allocates
    only what the result needs: a frame's processed symbols are the roots
    of its trees ({!processed}), and the visited set of the left-recursion
    guard is read off the frames' push positions ({!visited}). *)

open Costar_grammar
open Costar_grammar.Symbols

type frame = {
  label : nonterminal option;  (** [None] only for the bottom frame. *)
  start : int;
      (** input position at which the frame was pushed (0 for the bottom
          frame); never decreases up the stack *)
  trees_rev : Tree.t list;
      (** partial derivation of the processed symbols, most recent first *)
  suf : symbol list;
      (** unprocessed symbols; in a caller frame (every frame but the top)
          the first one is the nonterminal of the open child frame above
          it, as in the paper *)
}

type state = {
  top : frame;
  frames : frame list;  (** callers, innermost first *)
  cache : Cache.t;
  word : Word.t;  (** the whole input, as the array cursor *)
  pos : int;  (** current input position; remaining = [word.len - pos] *)
  unique : bool;  (** false once any prediction reported ambiguity *)
}

(** Why a step rejected — the structured arm the error-recovery layer
    ({!Costar_recover.Recover}) dispatches on.  Every constructor carries
    the input position the failure was detected at (absent for
    [Fail_eof], where it is the end of input by definition). *)
type fail_reason =
  | Fail_mismatch of { expected : terminal; pos : int }
      (** consume found a different terminal at [pos] *)
  | Fail_eof of { expected : terminal }
      (** consume ran off the end of the input *)
  | Fail_no_alt of { nt : nonterminal; pos : int; lookahead : int }
      (** prediction rejected every right-hand side of [nt]; [lookahead]
          is the number of tokens examined past [pos] before rejecting *)
  | Fail_trailing of { pos : int }
      (** the stack emptied with input remaining at [pos] *)

(** A recoverable rejection: the structured reason plus the rendered
    message (exactly the string {!Parser.Reject} historically carried). *)
type failure = {
  reason : fail_reason;
  message : string;
}

type step_result =
  | Step_cont of state
  | Step_halt  (** the stack is empty: {!finish} decides the outcome *)
  | Step_reject of failure
  | Step_error of Types.error

(** What the finish rule makes of an empty stack. *)
type final =
  | Final_accept of Tree.t
      (** the input is used up and the bottom frame spells the start
          symbol: its one tree is the parse *)
  | Final_trailing of failure
      (** input remains (a [Fail_trailing] failure) *)
  | Final_malformed
      (** the bottom frame does not spell the start symbol — unreachable
          for a machine run, reachable after recovery's repairs *)

(** Static context: the grammar and its analyses. *)
type env = {
  g : Grammar.t;
  anl : Analysis.t;
  labels : nonterminal option array;
      (** [labels.(x) = Some x], shared by every frame [x] labels *)
}

val make_env : Grammar.t -> env

(** Initial machine state for the grammar's start symbol over an array
    cursor: the machine consumes [word.kinds.(pos)] directly, and
    prediction's warm fast path never touches a token record.  [cache]
    (default: a fresh one) is the DFA cache every prediction of the run
    reads and extends. *)
val init_word : env -> ?cache:Cache.t -> Word.t -> state

(** One atomic machine operation: consume, push, or return; [Step_halt]
    once the stack is empty.  {!Parser.multistep} is the loop over it. *)
val step : env -> state -> step_result

(** The finish rule, applied to a state whose stack is empty. *)
val finish : env -> state -> final

(** Number of unconsumed tokens. *)
val remaining : state -> int

(** Human-readable description of the current input position ("at line L,
    column C" / "at token ..." / "at end of input") — the phrase the
    machine's own reject messages embed, exposed so the recovery layer can
    render byte-identical messages. *)
val pos_msg : state -> string

(** Unconsumed tokens, materialized (traces, tests). *)
val remaining_tokens : state -> Token.t list

(** Unprocessed suffix-stack symbols per frame, top frame first: a caller
    frame's [suf] without the open child's nonterminal at its head. *)
val conts : state -> symbol list list

(** The paper's visited set (§3.3): the nonterminals opened since the last
    consume.  They are the labels of the topmost frames whose [start] is
    the current position, so the set is rebuilt from the stack on demand
    (termination measure, traces, tests); the push guard tests membership
    the same way without building it. *)
val visited : state -> Int_set.t

(** The processed symbols of a frame, most recent first: the roots of its
    partial trees, skipping recovery's skipped-input markers (which stand
    for no grammar symbol). *)
val processed : frame -> symbol list

(** Stack height (number of frames). *)
val height : state -> int

(** The stack well-formedness invariant StacksWf_I (paper, Fig. 4): every
    non-bottom frame, with its caller's label, spells out a production of
    the grammar, and the bottom frame spells the start symbol. *)
val stacks_wf : env -> state -> bool
