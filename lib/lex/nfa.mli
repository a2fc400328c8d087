(** Thompson construction: regexes to nondeterministic finite automata.

    A combined NFA is built from a list of tagged regexes (one per scanner
    rule); each accepting state remembers the index of the rule it belongs
    to, so the DFA can implement rule-priority tie-breaking. *)

type t

type state = int

val num_states : t -> int
val start : t -> state

(** [build rules] wires one Thompson fragment per regex, all reachable from
    a shared start state via epsilon.  Rule indices are positions in the
    input list. *)
val build : Regex.t list -> t

(** A scratch state set for one NFA.  A subset construction makes one
    and passes it to every {!eps_closure} and {!step} of its run, so a
    step costs the states it touches instead of an array over every NFA
    state.  It is mutable and must not be shared between concurrent
    runs. *)
type marks

val marks : t -> marks

(** Epsilon closure of a set of states of the NFA, as a sorted list. *)
val eps_closure : marks -> state list -> state list

(** States reachable from [states] by consuming byte [c] (not closed), as
    a sorted list. *)
val step : marks -> state list -> char -> state list

(** The bytes 0..255 cut into ascending inclusive intervals [(lo, hi)]
    that no transition range splits: all bytes of one interval step every
    state set to the same states. *)
val intervals : t -> (int * int) list

(** [accept_rule nfa s] is the rule index accepted at state [s], if any. *)
val accept_rule : t -> state -> int option
