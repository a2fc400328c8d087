(** Struct-of-arrays token buffer — the zero-copy token stream.

    Three parallel off-heap arrays (terminal ids, start offsets, end
    offsets into the shared input string) replace [Token.t list] on the
    lex→parse hot path.  The laziness contract: scanning records offsets
    only; lexemes are sliced and positions recovered (via the {!Lines}
    table, built on first query) per token, on demand — so tokens that
    are only ever stepped over by prediction cost three int writes and
    nothing more.

    The arrays are native-int {!Bigarray.Array1}s: the storage lives
    outside the OCaml heap, so a buffer adds nothing to minor-GC pressure
    or heap scan work. *)

type int_array = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap int array; [Array1.unsafe_get] returns an unboxed [int]. *)

type t

(** [create ?capacity input] is an empty buffer over [input]. *)
val create : ?capacity:int -> string -> t

(** Like {!create}, sized from [String.length input] so that scanning a
    typical corpus never grows the arrays. *)
val create_for_input : string -> t

val length : t -> int
val input : t -> string

(** Drop all tokens, keeping the arrays (and newline table): re-scanning
    the same input into a cleared buffer allocates nothing.  A parse tree
    over the buffer ({!Word.of_buf}) holds token indices into it, not
    tokens, so the buffer must not be cleared while such a tree is alive:
    the next scan would silently rewrite the tree's leaves. *)
val clear : t -> unit

(** A buffer over the same storage whose arrays end at the last token (no
    copy).  It shares the tokens, so clearing the original rewrites them;
    it marshals without the original's spare capacity. *)
val trimmed : t -> t

(** Append one token.  [start]/[stop] delimit the lexeme in the input;
    a synthesized token (e.g. the indenter's INDENT) uses [start = stop],
    making its lexeme empty and its position that of [start]. *)
val add : t -> kind:int -> start:int -> stop:int -> unit

(** [append_range dst src i j] appends tokens [i] to [j - 1] of [src] to
    [dst], offsets unchanged, so both buffers must be over the same input.
    Raises [Invalid_argument] unless [0 <= i <= j <= length src]. *)
val append_range : t -> t -> int -> int -> unit

val kind : t -> int -> Symbols.terminal
val start_ofs : t -> int -> int
val end_ofs : t -> int -> int

(** The kinds backing array.  May be longer than [length]; only indices
    below [length] are meaningful. *)
val kinds_unsafe : t -> int_array

(** Lazy lexeme: a fresh slice of the input. *)
val lexeme : t -> int -> string

(** The buffer's newline table (built on first use). *)
val lines : t -> Lines.t

(** Lazy position of token [i]: 1-based line, 0-based column. *)
val pos : t -> int -> int * int

(** Materialize token [i] as a boxed {!Token.t} (lexeme + position). *)
val token : t -> int -> Token.t

(** Materialize the whole buffer (differential tests, dumps). *)
val to_tokens : t -> Token.t list
