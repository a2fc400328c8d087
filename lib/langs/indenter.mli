(** Python-style indentation pre-pass.

    Turns a flat scanner token stream into a logical-line stream with
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

(** [run ~eof raws] consumes the raw scanner tokens (which must include one
    raw per physical newline, kind ["NEWLINE"]) and yields the logical
    stream.  [eof] is the (line, column) of the end of the input.  The
    end-of-input NEWLINE and DEDENTs go at the start of the line after the
    last emitted token when the input has that line, and at [eof]
    otherwise, as in {!run_buf}.  Fails with a message on inconsistent
    dedents. *)
val run :
  eof:int * int ->
  Costar_lex.Scanner.raw list ->
  (Costar_lex.Scanner.raw list, string) result

(** Terminal ids the buffer pass needs, resolved against the grammar once
    per language (NEWLINE/INDENT/DEDENT plus whichever bracket terminals
    the grammar actually has).  Raises [Invalid_argument] if the grammar
    lacks one of the three structural terminals. *)
type ids

val ids_of_grammar : Costar_grammar.Grammar.t -> ids

(** [run_buf ids buf] is {!run} over the struct-of-arrays token buffer:
    same algorithm, but columns come from the buffer's shared newline
    table and synthesized tokens are zero-width entries ([start = stop])
    anchored at the start of the line they open or close (end-of-input
    synths at the start of the line after the last emitted token, or at
    [String.length input] when no newline follows that token).  [buf] may
    be the scanner's scratch (inside {!Costar_lex.Scanner.with_scratch}):
    the pass writes a scratch of its own and returns an exact-size copy
    ({!Costar_grammar.Token_buf.copy}), so the only off-heap bytes it
    allocates are the 12 per token of its result. *)
val run_buf :
  ids ->
  Costar_grammar.Token_buf.t ->
  (Costar_grammar.Token_buf.t, string) result
