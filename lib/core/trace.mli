(** Machine-execution traces in the style of the paper's Fig. 2.

    Each rendered state shows the suffix stack (unprocessed symbols, open
    nonterminals bracketed), the partial parse trees of the top prefix
    frame, the remaining tokens, and the visited set. *)

open Costar_grammar

val pp_state :
  Machine.env -> Machine.ctx -> Format.formatter -> Machine.state -> unit

(** Run the parser over [word] (through [cache], default the parser's
    base cache), collecting one rendered line per machine state (the
    initial state included), and the final result.  Cache contents never
    change a line, only how fast it is produced. *)
val run : ?cache:Cache.t -> Parser.t -> Word.t -> string list * Parser.result

(** [print p w] writes the trace to stdout and returns the result. *)
val print : ?cache:Cache.t -> Parser.t -> Word.t -> Parser.result
