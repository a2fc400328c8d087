(** The CoStar stack machine (paper, §3.2–3.3).

    The machine state is exposed transparently so that the test suite can
    check the paper's invariants (stack well-formedness, Fig. 4) and the
    termination measure (§4) after every step.  Use {!Parser} for the
    ordinary parsing API.

    Following the Coq implementation, each frame pairs the prefix-stack and
    suffix-stack components at one level: the partial parse trees of the
    processed symbols, the unprocessed symbols, and the label — the open
    nonterminal whose prediction created the frame.  The representation
    keeps only what a step cannot derive:
    - the partial trees are not stored: the machine appends each finished
      subtree to the run's postorder event buffer ({!Tree.Events}), and a
      frame records only the event index where its children start; a
      frame's processed symbols are the roots of its trees ({!processed});
    - the visited set of the left-recursion guard is read off the frames'
      push positions ({!visited});
    - the state holds the top frame's unprocessed suffix, and each frame
      links straight to its caller and holds the caller's suffix past the
      open child ([ret]), so the stack is a chain of frames with no list
      cells: a consume or a return allocates nothing but the next state.

    What stays the same for the whole run — the prediction cache, its
    first-token table, the input word and the event buffer — lives in a
    per-run context ({!ctx}); a state carries only what a step changes.
    States stay immutable: a step writes events only at indices at or
    above its state's [ev], so resuming from an earlier state (as
    recovery's trials do) simply overwrites the events of the discarded
    branch. *)

open Costar_grammar
open Costar_grammar.Symbols

(** A stack of frames, innermost first.  The bottom frame, which spells
    the start symbol, has no label and was pushed at position 0 with its
    children starting at event 0, so it is the constant [Bottom]. *)
type frame =
  | Bottom
  | Frame of {
      label : nonterminal;  (** the open nonterminal *)
      start : int;
          (** input position at which the frame was pushed; never
              decreases up the stack *)
      first : int;
          (** event index where the frame's children start: its partial
              trees are the subtrees between [first] and the [first] of
              the frame above (the state's [ev] for the top frame) *)
      ret : symbol list;
          (** the caller's unprocessed symbols after this frame returns:
              the paper's caller suffix without the open child's
              nonterminal at its head *)
      below : frame;  (** the caller *)
    }

type state = {
  suf : symbol list;  (** the top frame's unprocessed symbols *)
  top : frame;  (** the top frame and, through it, its callers *)
  pos : int;  (** current input position; remaining = [word.len - pos] *)
  ev : int;  (** number of events written: the next one goes here *)
  unique : bool;  (** false once any prediction reported ambiguity *)
}

(** What one run shares across its steps. *)
type ctx = {
  cache : Cache.t;  (** the DFA cache every prediction reads and extends *)
  word : Word.t;  (** the whole input, as the array cursor *)
  events : Tree.Events.t;  (** the run's postorder tree events *)
  decisions : int array;
      (** [Cache.decisions cache], read in place by every push *)
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

(** Per-parser context: the grammar, its analyses, and a buffer size hint. *)
type env = {
  g : Grammar.t;
  anl : Analysis.t;
  lhs : nonterminal array;  (** left-hand side per production index *)
  rhs : symbol list array;  (** right-hand side per production index *)
  stride : int;  (** columns of a first-token table row: terminals + 1 *)
  mutable events_per_token : int;
      (** tree events per input token of the last run {!finish} accepted
          (rounded up): the starting size of the next run's event buffer.
          Only a size hint; runs in parallel may race on it harmlessly. *)
}

val make_env : Grammar.t -> env

(** A run's context over an array cursor: the machine consumes
    [word.kinds.(pos)] directly, and prediction's warm fast path never
    touches a token record.  [cache] (default: a fresh one) is the DFA
    cache every prediction of the run reads and extends.  [events]
    (default: a fresh buffer of [events_per_token] events per token, plus
    16) is the buffer the run writes its tree into; the run's tree keeps
    it.
    @raise Invalid_argument if [cache]'s first-token table does not have
    this grammar's shape. *)
val context : env -> ?cache:Cache.t -> ?events:Tree.Events.t -> Word.t -> ctx

(** The initial state: the start symbol in the bottom frame. *)
val initial : env -> state

(** One primitive machine transition: consume, push, or return;
    [Step_halt] once the stack is empty.  A push of an ε-production is a
    push here, and the return from it the next step, as in the paper. *)
val step : env -> ctx -> state -> step_result

(** Why the machine loop stopped. *)
type stop =
  | Halted of state  (** the stack emptied; {!finish} decides the outcome *)
  | Rejected of state * failure  (** a step rejected in this state *)
  | Failed of Types.error  (** a step raised a machine error *)

(** [multistep env ctx st] is the paper's [multistep] loop (§3.2): it
    steps the machine from [st] until the stack empties, a step rejects,
    or a step fails.  {!Parser.run_word} finishes its [Halted] state; the
    recovery engine repairs a [Rejected] state and resumes the loop.

    With [inspect], it iterates {!step} and calls [inspect ctx] on every
    state it visits (the first one included).  Without it, the loop is
    unboxed: the state's fields are the arguments of a tail-recursive
    loop, a transition allocates only the frame a push opens, and a
    [state] record is built only where the loop stops.  It also fuses
    ε-productions: a push that predicts one writes the node event and
    advances the caller's suffix in the same transition, with no frame.
    Both forms stop with the same result, the same events and the same
    final state: the fused loop only skips the ε-frames in between. *)
val multistep :
  ?inspect:(ctx -> state -> unit) -> env -> ctx -> state -> stop

(** The finish rule, applied to a state whose stack is empty.  An accept
    also records the tree's event density in [env.events_per_token]. *)
val finish : env -> ctx -> state -> final

(** Number of unconsumed tokens. *)
val remaining : ctx -> state -> int

(** Human-readable description of the current input position ("at line L,
    column C" / "at token ..." / "at end of input") — the phrase the
    machine's own reject messages embed, exposed so the recovery layer can
    render byte-identical messages. *)
val pos_msg : ctx -> state -> string

(** Unconsumed tokens, materialized (traces, tests). *)
val remaining_tokens : ctx -> state -> Token.t list

(** Unprocessed suffix-stack symbols per frame, top frame first: [suf],
    then each frame's [ret] (a caller's suffix without the open child's
    nonterminal at its head). *)
val conts : state -> symbol list list

(** The frames' labels, top frame first ([None] for the bottom frame),
    aligned with {!conts}. *)
val labels : state -> nonterminal option list

(** The paper's visited set (§3.3): the nonterminals opened since the last
    consume.  They are the labels of the topmost frames whose [start] is
    the current position, so the set is rebuilt from the stack on demand
    (termination measure, traces, tests); the push guard tests membership
    the same way without building it. *)
val visited : state -> Int_set.t

(** The partial trees of every frame, top frame first, each frame's left
    to right.  The handles share the run's buffer (traces, tests). *)
val trees : ctx -> state -> Tree.t list list

(** The processed symbols of every frame, top frame first, each most
    recent first: the roots of its partial trees, skipping recovery's
    skipped-input markers (which stand for no grammar symbol). *)
val processed : ctx -> state -> symbol list list

(** Stack height (number of frames). *)
val height : state -> int

(** The stack well-formedness invariant StacksWf_I (paper, Fig. 4): every
    non-bottom frame, with its caller's label, spells out a production of
    the grammar, and the bottom frame spells the start symbol. *)
val stacks_wf : env -> ctx -> state -> bool
