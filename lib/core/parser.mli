(** The CoStar top-level API (paper, §3.1).

    [parse] applied to a grammar and an input word returns a parse tree
    labelled [Unique] or [Ambig], a [Reject] with a human-readable reason, or
    an [Error] — which, per the paper's Theorem 5.8, never occurs for
    non-left-recursive grammars (checked statically by
    {!Costar_grammar.Left_recursion.check} and dynamically by the machine). *)

open Costar_grammar

type result =
  | Unique of Tree.t  (** the sole parse tree for the input *)
  | Ambig of Tree.t
      (** a correct parse tree for an input that has at least one other *)
  | Reject of string  (** the input is not in the grammar's language *)
  | Error of Types.error

val pp_result : Grammar.t -> Format.formatter -> result -> unit

(** A prepared parser: the grammar together with its static analyses.
    Build once, run on many inputs. *)
type t

val make : Grammar.t -> t
val grammar : t -> Grammar.t
val analysis : t -> Analysis.t
val env : t -> Machine.env

(** [run p w] parses the token sequence [w] through the parser's shared
    base cache ({!base_cache}).  Prediction builds what it needs on
    demand — a decision's initial SLL DFA state (the paper's footnote-7
    static cache) and each transition are computed on the first miss —
    and, the cache store being mutable, what [w] taught it is kept for
    later runs on the same parser.  (Cache contents never affect results,
    only speed; use [run_with_cache p (Cache.create (analysis p)) w] for a
    run that shares nothing with other runs.) *)
val run : t -> Token.t list -> result

(** [run_word p w] is {!run} over the array cursor — the zero-copy
    pipeline's entry point.  [run p toks = run_word p (Word.of_tokens
    toks)]. *)
val run_word : t -> Word.t -> result

(** [run_buf p buf] parses a struct-of-arrays token buffer (as produced
    by the compiled scanner) without materializing a token list. *)
val run_buf : t -> Token_buf.t -> result

(** The parser's shared base cache.  It starts empty, is extended on
    demand by every {!run} (initial DFA states and transitions as
    predictions first need them), and is seeded with the footnote-7
    initial states by {!run_cold}.  Exposed for cache-behaviour
    measurements. *)
val base_cache : t -> Cache.t

(** Install a loaded cache (an image-backed cache from {!Cache.load_image},
    or one decoded with {!Cache.of_image_bytes}) as the parser's base, replacing the on-demand one.  Raises
    [Invalid_argument] if the cache was built against a different
    analysis. *)
val set_base_cache : t -> Cache.t -> unit

(** [run_cold p w] is {!run} on an independent copy of the static grammar
    cache of the paper's footnote 7: the base cache is seeded once with
    every reachable decision's initial DFA state ({!Sll.prepare}), and
    the parse runs on a copy, so nothing learned from [w] leaks into
    later runs.  This is the paper tool's per-parse cache behaviour, kept
    for cold-cache measurements. *)
val run_cold : t -> Token.t list -> result

(** [run_with_cache p cache w] additionally threads an SLL cache in and out,
    allowing cache reuse across inputs (an extension over the paper's API;
    see DESIGN.md, experiment E4). *)
val run_with_cache : t -> Cache.t -> Token.t list -> result * Cache.t

(** Cursor form of {!run_with_cache}. *)
val run_with_cache_word : t -> Cache.t -> Word.t -> result * Cache.t

(** [run_inspect p ~inspect w] calls [inspect] on every intermediate machine
    state, including the initial one (used for traces and invariant
    checking). *)
val run_inspect :
  t -> inspect:(Machine.state -> unit) -> Token.t list -> result

(** Cursor form of {!run_inspect}, driving the zero-copy [run_word] path. *)
val run_inspect_word :
  t -> inspect:(Machine.state -> unit) -> Word.t -> result

(** One-shot convenience: [parse g w = run (make g) w]. *)
val parse : Grammar.t -> Token.t list -> result
