(** Struct-of-arrays token buffer — the zero-copy token stream.

    Three parallel off-heap arrays (terminal ids, start offsets, end
    offsets into the shared input string) replace [Token.t list] on the
    lex→parse hot path.  The laziness contract: scanning records offsets
    only; lexemes are sliced and positions recovered (via the {!Lines}
    table, built on first query) per token, on demand — so tokens that
    are only ever stepped over by prediction cost three int writes and
    nothing more.

    The arrays are {!Bigarray.Array1}s: the storage lives outside the
    OCaml heap, so a buffer adds nothing to minor-GC pressure or heap
    scan work.  Off-heap bytes still pace the major GC, so the elements
    are int32 (12 bytes per token) and a scan returns exact-size arrays
    (see {!copy}); every field must lie in [0 .. 2^31-1]. *)

type int_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap int32 array.  [Array1.unsafe_get] returns an unboxed
    [int32] only where the array's type is statically known: a function
    that takes one as an argument must annotate it with this type, or
    each read is a C call that boxes its result. *)

type t

(** [create ?capacity input] is an empty buffer over [input]. *)
val create : ?capacity:int -> string -> t

(** [of_arrays input len kinds starts ends] is a buffer over [input]
    holding the [len] tokens the arrays spell (no copy: the buffer reads
    and grows from the given arrays).  Every start/end offset must lie in
    [0 .. String.length input]; only the lengths are checked here.  The
    prefork tier builds results over arrays mapped from a worker's
    result file.
    @raise Invalid_argument if an array has fewer than [len] elements. *)
val of_arrays : string -> int -> int_array -> int_array -> int_array -> t

(** [reset b input] empties [b] and rebinds it to [input], keeping its
    arrays: the scanner's per-domain scratch buffer is reset per scan. *)
val reset : t -> string -> unit

(** A buffer over the same input holding the same tokens in fresh arrays
    of exactly [length] elements, without the newline table.  This is
    what a scan returns: it allocates 12 bytes per token off the heap and
    shares nothing with the buffer it copies. *)
val copy : t -> t

val length : t -> int
val input : t -> string

(** Drop all tokens, keeping the arrays (and newline table): re-scanning
    the same input into a cleared buffer allocates nothing.  A parse tree
    over the buffer ({!Word.of_buf}) holds token indices into it, not
    tokens, so the buffer must not be cleared while such a tree is alive:
    the next scan would silently rewrite the tree's leaves. *)
val clear : t -> unit

(** A buffer over the same storage whose arrays end at the last token (no
    copy; a buffer without spare capacity gets only a new record).  It
    shares the tokens, so clearing the original rewrites them; it
    marshals without the original's spare capacity. *)
val trimmed : t -> t

(** Append one token.  [start]/[stop] delimit the lexeme in the input;
    a synthesized token (e.g. the indenter's INDENT) uses [start = stop],
    making its lexeme empty and its position that of [start].
    Raises [Invalid_argument] if a field lies outside [0 .. 2^31-1]. *)
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

(** The start and end offset backing arrays, like {!kinds_unsafe}. *)
val starts_unsafe : t -> int_array

val ends_unsafe : t -> int_array

(** Off-heap bytes allocated for token arrays so far, by every domain of
    this process: the lex layer's off-heap ledger. *)
val allocated_bytes : unit -> int

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
