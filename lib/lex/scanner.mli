(** Longest-match scanners built from prioritized regex rules.

    A scanner turns an input string into tokens using the maximal-munch
    rule; ties between rules matching the same length are broken by rule
    order (first rule wins), as in ANTLR and ocamllex.  Rules marked
    [Skip] match but emit nothing (whitespace, comments).

    There is one scan loop, {!scan_into}: {!compile} resolves each rule's
    terminal id against a grammar once, and a scan writes the input in a
    single pass into a struct-of-arrays {!Costar_grammar.Token_buf.t} —
    no per-token records, no lexeme substrings, positions recovered
    lazily from the newline table.  A token list is a view of that
    buffer ({!tokenize}, {!Costar_grammar.Token_buf.to_tokens}). *)

type action =
  | Emit  (** produce a token named after the rule *)
  | Skip  (** match and discard *)

type rule = {
  name : string;
  re : Regex.t;
  action : action;
}

val rule : ?skip:bool -> string -> Regex.t -> rule

type t

(** @raise Invalid_argument if any rule accepts the empty string (such a
    rule could make the scanner loop). *)
val make : rule list -> t

(** The scanner's DFA (for tests and diagnostics). *)
val dfa : t -> Dfa.t

val rules : t -> rule list

type error = {
  msg : string;
  err_line : int;
  err_col : int;
}

val pp_error : Format.formatter -> error -> unit

(** {2 Scanning} *)

type compiled

(** [compile t g] resolves every [Emit] rule's name to a terminal of [g],
    once.  A rule whose name is not a terminal of [g] is no error here: a
    scan that emits one of its tokens fails with
    ["token kind X is not a terminal of the grammar"] at the token's
    start, unless a byte no rule matches fails it first. *)
val compile : t -> Costar_grammar.Grammar.t -> compiled

(** [scan_buf c input] scans the whole input into the domain's scratch
    buffer and returns an exact-size copy ({!Costar_grammar.Token_buf.copy}).
    Steady-state cost per token: the DFA walk, three int32 writes and
    the 12-byte copy — no minor-heap allocation, and no off-heap bytes
    beyond the copy. *)
val scan_buf :
  compiled -> string -> (Costar_grammar.Token_buf.t, error) result

(** [with_scratch c input f] is [f] applied to {!scan_buf}'s result
    without the copy: the buffer [f] sees {e is} the domain's scratch,
    valid only until [f] returns, when the scratch is emptied and
    rebound to [""] (so it holds neither [input] nor its newline table).
    For a post-pass (the indenter) that reads the raw stream and writes
    its own buffer; [f] must copy anything that outlives it, and must
    not scan on this domain itself. *)
val with_scratch :
  compiled ->
  string ->
  ((Costar_grammar.Token_buf.t, error) result -> 'a) ->
  'a

(** [scan_into c buf input] is {!scan_buf} into a caller-supplied buffer
    (which must have been created over [input]).
    @raise Lex_err on a lexical error. *)
val scan_into : compiled -> Costar_grammar.Token_buf.t -> string -> unit

(** [tokenize t g input] is the token list of {!scan_buf} over
    [compile t g]: a view for callers that scan one input per scanner. *)
val tokenize :
  t -> Costar_grammar.Grammar.t -> string ->
  (Costar_grammar.Token.t list, error) result

exception Lex_err of error
