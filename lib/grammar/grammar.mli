(** Context-free grammars over interned symbols.

    A grammar is a start nonterminal plus an ordered array of productions
    (paper, Fig. 1: [G ::= . | X -> gamma, G]).  Production order matters: when
    prediction reports an ambiguous input it commits to the viable right-hand
    side that appears first in the grammar, mirroring CoStar/ANTLR behaviour.

    Grammars are immutable after construction.  Construction interns all
    terminal and nonterminal names into per-grammar {!Pool}s. *)

open Symbols

type production = {
  lhs : nonterminal;
  rhs : symbol list;
  ix : int;  (** Index of this production in {!prods}, i.e. grammar order. *)
}

type t

(** {1 Construction} *)

(** Right-hand-side element in the surface construction DSL. *)
type elt =
  | Tm of string  (** terminal, by name *)
  | Ntm of string  (** nonterminal, by name *)

val t : string -> elt
val n : string -> elt

(** [define ~start rules] builds a grammar.  Each rule is a nonterminal name
    together with its alternatives in priority order.  Every nonterminal
    referenced on a right-hand side must have at least one rule (otherwise a
    nonterminal would be trivially non-productive); pass [~allow_undefined:
    true] to permit undefined nonterminals (they derive no word).

    [extra_terminals] declares terminal names that appear in the token stream
    but on no right-hand side (e.g. skipped-but-emitted markers).

    @raise Invalid_argument on duplicate rules for a nonterminal, an undefined
    start symbol, or undefined referenced nonterminals. *)
val define :
  ?allow_undefined:bool ->
  ?extra_terminals:string list ->
  start:string ->
  (string * elt list list) list ->
  t

(** {1 Accessors} *)

val start : t -> nonterminal
val prods : t -> production array
val prod : t -> int -> production

(** Indices of the productions for a nonterminal, in grammar order. *)
val prods_of : t -> nonterminal -> int list

(** Right-hand sides for a nonterminal, in grammar order. *)
val rhss_of : t -> nonterminal -> symbol list list

val num_terminals : t -> int
val num_nonterminals : t -> int
val num_productions : t -> int

val terminal_name : t -> terminal -> string
val nonterminal_name : t -> nonterminal -> string
val symbol_name : t -> symbol -> string

val terminal_of_name : t -> string -> terminal option
val nonterminal_of_name : t -> string -> nonterminal option

(** [find_production g x rhs] is the production [x -> rhs] if it is in [g]. *)
val find_production : t -> nonterminal -> symbol list -> production option

(** Longest right-hand side length (paper, Section 4.3: [maxRhsLen]). *)
val max_rhs_len : t -> int

(** [token g name lexeme] builds a token whose terminal is resolved by name.
    Convenient for tests and examples.
    @raise Invalid_argument if [name] is not a terminal of [g]. *)
val token : ?line:int -> ?col:int -> t -> string -> string -> Token.t

(** [tokens g names] builds a token per terminal name, each with its name as
    its lexeme. *)
val tokens : t -> string list -> Token.t list

(** [fingerprint g] is a hex digest over the grammar's full structure — start
    symbol, interned terminal and nonterminal pools (names, in id order), and
    every production — such that two grammars share a fingerprint iff they are
    indistinguishable to the prediction machinery.  Used to invalidate
    saved prediction-DFA cache images (see {!Costar_core.Cache}). *)
val fingerprint : t -> string

(** {1 Printing} *)

val pp_symbol : t -> Format.formatter -> symbol -> unit
val pp_symbols : t -> Format.formatter -> symbol list -> unit
val pp_production : t -> Format.formatter -> production -> unit
val pp : Format.formatter -> t -> unit
