(** The well-founded termination measure (paper, §4.2–4.3).

    OCaml does not require a termination proof, but we implement the measure
    anyway and the test suite checks Lemmas 4.2–4.4 as executable properties:
    every machine step strictly decreases [meas] in the lexicographic order.

    [stackScore] values grow like [base^(|N| + stack height)], far beyond
    63-bit integers, so scores are represented exactly as base-[b] digit
    strings: [frameScore] coefficients are bounded by [maxRhsLen < b], so
    each frame contributes one digit. *)

open Costar_grammar
open Costar_grammar.Symbols

(** An exact natural number in base [base], least-significant digit first. *)
type score = private {
  base : int;
  digits : int array;
}

val compare_score : score -> score -> int

(** [stack_score g ~visited sufs] where [sufs] are the unprocessed symbol
    lists of the suffix stack, topmost first.  Uses base
    [1 + maxRhsLen(g)] and initial exponent [|U \ V|] per the paper. *)
val stack_score : Grammar.t -> visited:Int_set.t -> symbol list list -> score

(** The triple (remaining tokens, stack score, stack height). *)
type t = {
  tokens : int;
  score : score;
  height : int;
}

val meas : Grammar.t -> Machine.ctx -> Machine.state -> t

(** Lexicographic order on triples (the paper's [<3], flipped to [compare]
    conventions). *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
