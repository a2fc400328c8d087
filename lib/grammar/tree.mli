(** Parse trees (paper, Fig. 1), stored flat.

    A tree is an abstract handle on a postorder event buffer that lives
    off the OCaml heap: one event per node, each two int32s — a
    kind/label word (a leaf's token index into its {!Word}, a node's
    nonterminal, or an error marker's symbol) and the size of the subtree.
    A parse appends events and never builds a boxed node; a leaf's
    {!Token.t} is built only when a consumer views it.  {!view} unfolds
    one level for consumers that pattern-match, and the walks below
    ({!size}, {!depth}, {!pp}, ...) run over the events with an explicit
    stack, so a deep tree costs no more than a wide one.

    [Node (x, kids)] holds a nonterminal and the subtrees for the symbols
    of one of its right-hand sides; [Leaf t] a consumed token.
    [Error (at, kids)] only ever appears in trees produced by the
    error-recovery engine ({!Costar_recover.Recover}): an explicit marker
    for material the recovering parser could not derive normally.
    [at = Some s] records the symbol being repaired — an abandoned
    nonterminal with its partial children, or a terminal the parser
    inserted (no children) — while [at = None] wraps skipped input tokens
    as [Leaf] children.  The plain engines never build [Error] nodes, so
    on well-formed input recovery output is node-for-node identical to
    theirs (the differential obligation pinned by test/test_recover.ml).

    Compare trees with {!equal} or {!compare}, never with polymorphic
    equality or [Hashtbl.hash]: a handle also carries its buffer's
    capacity and token source, which are not part of the tree. *)

open Symbols

type t

type forest = t list

(** One level of a tree.  The children are handles into the same
    buffer. *)
type view =
  | Leaf of Token.t
  | Node of nonterminal * t list
  | Error of symbol option * t list

val view : t -> view

(** {1 Building trees by copying}

    For oracles and tests: each constructor copies its children's events
    into a fresh buffer (linear in the size of the result). *)

val leaf : Token.t -> t
val node : nonterminal -> t list -> t
val error : symbol option -> t list -> t

(** {1 The event buffer}

    What the parse engines append to.  Events are written at explicit
    indices, so an engine that keeps immutable states can resume from an
    earlier state and simply overwrite the events of a discarded
    branch. *)
module Events : sig
  type tree := t
  type t

  (** A buffer with room for [n] events (it grows on demand). *)
  val create : int -> t

  (** A buffer that writes into [a], two elements per event, until an
      event lies past [a]'s end: then it grows into fresh memory, like a
      buffer from {!create}, and writes nothing more into [a].  The
      prefork tier parses straight into a mapped result file this way. *)
  val over : Token_buf.int_array -> t

  (** The array the buffer writes into now: the one given to {!over}
      until the buffer grows. *)
  val storage : t -> Token_buf.int_array

  (** [leaf b i tok] writes, as event [i], a leaf for token index [tok].
      @raise Invalid_argument if [tok >= 2^28] (and any write raises past
      2^30 events): the bounds of the int32 encoding. *)
  val leaf : t -> int -> int -> unit

  (** [node b i x ~first] writes, as event [i], a node for [x] whose
      children are the events [first .. i - 1]. *)
  val node : t -> int -> nonterminal -> first:int -> unit

  (** [error b i s ~first] writes an [Error s] marker the same way. *)
  val error : t -> int -> symbol option -> first:int -> unit

  (** The root symbol of the subtree at event [i] (leaves through
      [word]); [None] for a skipped-input marker. *)
  val symbol : t -> Word.t -> int -> symbol option

  (** Number of events in the subtree at event [i]. *)
  val size : t -> int -> int

  (** A handle on the subtree at event [i], sharing the buffer: valid
      until event [i] or an earlier one is overwritten. *)
  val tree : t -> Word.t -> int -> tree

  (** [seal b word n] is the tree whose root is event [n - 1] and whose
      events are [0 .. n - 1].  The handle covers exactly that prefix, so
      it marshals without the buffer's spare capacity.  Write nothing at
      an index below [n] afterwards. *)
  val seal : t -> Word.t -> int -> tree

  (** The raw encoding of events [0 .. n-1], so that two buffers can be
      compared byte for byte (differential tests of the machine loop). *)
  val bytes : t -> int -> string
end

(** {1 A tree's storage}

    For moving a tree without [Marshal] (the prefork tier copies it into
    shared memory): a tree is a root index into an int32 event array, and
    its events are [root - size t + 1 .. root], event [i] at elements
    [2 * i] (kind/label word) and [2 * i + 1] (subtree size).  Sizes are
    relative, so a subtree's events copied to the front of another array
    are the same tree with root [size t - 1]. *)

(** [to_events t] is [(ev, root)]: the array [t] reads, which may hold
    other events around the tree's, and the index of its root event. *)
val to_events : t -> Token_buf.int_array * int

(** [of_events ev word root] is the tree rooted at event [root] of [ev],
    its leaves indexing [word]: the inverse of {!to_events}, sharing [ev].
    @raise Invalid_argument if the root event or its subtree lies outside
    [ev].  The events below the root are not checked. *)
val of_events : Token_buf.int_array -> Word.t -> int -> t

(** Root symbol of a tree: the token's terminal for a leaf, the nonterminal
    for a node, the repaired symbol for an [Error] marker that has one.
    @raise Invalid_argument on [Error (None, _)] — skipped-input markers
    stand for no grammar symbol. *)
val root : t -> symbol

(** Whether the tree contains any [Error] node (i.e. is a partial tree
    emitted by the recovery engine). *)
val has_errors : t -> bool

(** Frontier of the tree, left to right: the consumed tokens.  [Error]
    markers contribute the tokens they wrap (skipped input), so the yield
    of a recovered partial tree still lists the input the parser went
    over; inserted-terminal markers contribute nothing. *)
val yield : t -> Token.t list

val yield_forest : forest -> Token.t list

(** Number of nodes and leaves. *)
val size : t -> int

val depth : t -> int

(** Number of tokens in the frontier. *)
val width : t -> int

(** Equality by shape: nodes by nonterminal, leaves by terminal and
    lexeme. *)
val equal : t -> t -> bool

(** The order of the boxed structure: [Leaf < Node < Error], then
    terminal and lexeme, nonterminal, or symbol option, then the
    children as lists. *)
val compare : t -> t -> int

(** Collect every nonterminal labelling a node. *)
val nonterminals : t -> Int_set.t

(** [pp g] renders a tree with symbol names resolved against [g], in
    s-expression style: [(S (A 'a' 'b') 'd')].

    The layout is the one Format gives
    ["@[<hov 1>(%s%a)@]"] with ["@ "] before every child (a leaf is
    ['lexeme']), byte for byte, when the tree starts a line of a
    formatter with nothing pending: every hov box of indent 1, breaks
    and line fills decided as OCaml 5.1's format.ml decides them,
    including boxes forced onto a new line past the maximum indentation.
    The margin and maximum indentation are the formatter's
    ({!Format.pp_get_margin}, {!Format.pp_get_max_indent}); its box
    limit ({!Format.pp_set_max_boxes}) is not consulted.

    [pp] computes that layout itself and gives the formatter the result
    as plain text, in strings of about 1.9 KB declared at their byte
    length.  Where the tree starts mid-line, it is still laid out as if
    at a line start and reaches the formatter as one block, so its lines
    do not move with the column it starts at, and the breaks around it
    count its bytes, newlines and indentation included. *)
val pp : Grammar.t -> Format.formatter -> t -> unit

(** The text of {!pp} under the geometry of a fresh formatter (margin
    78, maximum indentation 68), as [Fmt.str "%a" (pp g)] would give it,
    written straight into a buffer. *)
val to_string : Grammar.t -> t -> string

(** GraphViz DOT rendering of a parse tree (one node per tree node). *)
val to_dot : Grammar.t -> t -> string
