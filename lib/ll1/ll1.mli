(** A table-driven LL(1) parser generator: the verified-top-down-parsing
    baseline (Lasser et al., ITP 2019; paper §1, §7).

    Building the table reports every LL(1) conflict, which is how experiment
    E7 demonstrates that the XML benchmark grammar is out of reach for
    LL(1)-only verified parsers while CoStar handles it. *)

open Costar_grammar
open Costar_grammar.Symbols

type conflict = {
  nt : nonterminal;
  on : terminal option;  (** [None] = conflict in the end-of-input column *)
  prods : int list;  (** competing production indices *)
}

val pp_conflict : Grammar.t -> Format.formatter -> conflict -> unit

type table

(** [build g] constructs the LL(1) table, or reports all conflicts. *)
val build : Grammar.t -> (table, conflict list) result

(** Number of conflicts without building (for reporting). *)
val conflicts : Grammar.t -> conflict list

(** [parse table w] drives the table over [w].  The driver uses an explicit
    stack, so deeply nested inputs cannot overflow the OCaml stack. *)
val parse : table -> Token.t list -> (Tree.t, string) result

(** Convenience: build and parse, failing on conflicted grammars. *)
val parse_with : Grammar.t -> Token.t list -> (Tree.t, string) result
