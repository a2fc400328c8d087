(** Shared result types for the CoStar core (paper, Fig. 1). *)

open Costar_grammar.Symbols

(** Parser errors.  [Invalid_state] signals an inconsistent machine state
    (paper: never reached for well-formed runs); [Left_recursive x] signals
    that the dynamic left-recursion detector caught nonterminal [x] in a
    nullable cycle. *)
type error =
  | Invalid_state of string
  | Left_recursive of nonterminal

(** Result of [adaptivePredict], identifying the chosen right-hand side by
    its production index (grammar order). *)
type prediction =
  | Unique_pred of int
      (** The sole right-hand side that may lead to a successful parse. *)
  | Ambig_pred of int
      (** This right-hand side succeeds, and so does at least one other:
          the input is ambiguous.  In SLL mode this is merely "multiple
          candidates survive" and triggers failover to LL mode. *)
  | Reject_pred  (** No right-hand side leads to a successful parse. *)
  | Error_pred of error

let pp_error ppf = function
  | Invalid_state msg -> Fmt.pf ppf "invalid parser state: %s" msg
  | Left_recursive x -> Fmt.pf ppf "left-recursive nonterminal #%d" x

let error_to_string g = function
  | Invalid_state msg -> "invalid parser state: " ^ msg
  | Left_recursive x ->
    (* [x] may come from a cache supplied by the caller rather than from
       [g] itself, so the lookup must not trust its range. *)
    "left-recursive nonterminal "
    ^ Costar_grammar.Names.nonterminal g x
