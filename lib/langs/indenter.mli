(** Python-style indentation pre-pass.

    Turns a flat scanner token buffer (which must hold one [NEWLINE]
    token per physical newline) into a logical-line stream with
    synthesized [INDENT] and [DEDENT] tokens, implementing the interesting
    parts of Python's tokenizer algorithm:

    - newlines inside parentheses/brackets/braces are implicit line joins
      and are dropped;
    - blank lines (and comment-only lines, whose comments the scanner has
      already skipped) produce no NEWLINE;
    - at the start of each logical line, a column increase pushes the indent
      stack and emits [INDENT]; a decrease pops and emits one [DEDENT] per
      level, and must land exactly on an enclosing level;
    - end of input closes any open logical line and emits the remaining
      [DEDENT]s. *)

(** Terminal ids the buffer pass needs, resolved against the grammar once
    per language (NEWLINE/INDENT/DEDENT plus whichever bracket terminals
    the grammar actually has).  Raises [Invalid_argument] if the grammar
    lacks one of the three structural terminals. *)
type ids

val ids_of_grammar : Costar_grammar.Grammar.t -> ids

(** [run_buf ids buf] is the logical stream of the scanned tokens in
    [buf].  Columns come from the buffer's shared newline table, and
    synthesized tokens are zero-width entries ([start = stop])
    anchored at the start of the line they open or close (end-of-input
    synths at the start of the line after the last emitted token, or at
    [String.length input] when no newline follows that token).  [buf] may
    be the scanner's scratch (inside {!Costar_lex.Scanner.with_scratch}):
    the pass writes a scratch of its own and returns an exact-size copy
    ({!Costar_grammar.Token_buf.copy}), so the only off-heap bytes it
    allocates are the 12 per token of its result.  Fails with a message
    on inconsistent dedents. *)
val run_buf :
  ids ->
  Costar_grammar.Token_buf.t ->
  (Costar_grammar.Token_buf.t, string) result
