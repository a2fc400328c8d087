(** Longest-match scanners built from prioritized regex rules.

    A scanner turns an input string into raw tokens using the
    maximal-munch rule; ties between rules matching the same length are
    broken by rule order (first rule wins), as in ANTLR and ocamllex.
    Rules marked [Skip] match but emit nothing (whitespace, comments).

    Two pipelines share the same DFA:

    - the legacy list pipeline ({!scan}/{!tokenize}), which materializes
      a record, lexeme, and position per token — kept as the
      differential oracle;
    - the zero-copy buffer pipeline ({!compile}/{!scan_buf}), which
      resolves each rule's terminal id against a grammar once, then
      scans in a single pass into a struct-of-arrays
      {!Costar_grammar.Token_buf.t} — no per-token records, no lexeme
      substrings, positions recovered lazily from the newline table. *)

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

(** A raw token, before terminal-name resolution against a grammar. *)
type raw = {
  kind : string;
  lexeme : string;
  line : int;
  col : int;
}

type error = {
  msg : string;
  err_line : int;
  err_col : int;
}

val pp_error : Format.formatter -> error -> unit

(** [scan t input] produces the raw token sequence, or the position of the
    first character no rule matches. *)
val scan : t -> string -> (raw list, error) result

(** [tokenize t g input] scans and resolves token kinds to terminals of
    [g].  Raw tokens whose kind is not a terminal of [g] produce an
    [Error]. *)
val tokenize :
  t -> Costar_grammar.Grammar.t -> string ->
  (Costar_grammar.Token.t list, error) result

(** {2 The compiled (buffer) pipeline} *)

type compiled

(** [compile t g] resolves every [Emit] rule's name to a terminal of [g],
    once.  [Error] lists the rules whose names are not terminals (the
    legacy pipeline reports these lazily, only when such a token appears
    in an input). *)
val compile : t -> Costar_grammar.Grammar.t -> (compiled, string) result

val scanner_of_compiled : compiled -> t

(** [scan_buf c input] scans the whole input into a fresh token buffer.
    Steady-state cost per token: the DFA walk plus three int writes —
    no allocation. *)
val scan_buf :
  compiled -> string -> (Costar_grammar.Token_buf.t, error) result

(** [scan_into c buf input] is {!scan_buf} into a caller-supplied buffer
    (which must have been created over [input]).
    @raise Lex_err on a lexical error. *)
val scan_into : compiled -> Costar_grammar.Token_buf.t -> string -> unit


exception Lex_err of error
