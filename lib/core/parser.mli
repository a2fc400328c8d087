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

(** The parser's shared base cache.  It starts empty and is extended on
    demand by every {!run_word} that uses it (initial DFA states and
    transitions as predictions first need them).  Exposed for
    cache-behaviour measurements. *)
val base_cache : t -> Cache.t

(** Install a loaded cache (an image-backed cache from {!Cache.load_image},
    or one decoded with {!Cache.of_image_bytes}) as the parser's base,
    replacing the on-demand one.  Raises [Invalid_argument] if the cache
    was built against a different analysis. *)
val set_base_cache : t -> Cache.t -> unit

(** [run_word p w] parses the input word [w] (an array cursor over a token
    list or a scanner buffer).  Predictions read and extend [cache],
    default {!base_cache}: what [w] teaches the base cache is kept for
    later runs on the same parser, while a run given its own cache (e.g.
    [Cache.create (analysis p)]) shares nothing with other runs.  Cache
    contents never affect results, only speed.  [inspect] is called on
    every intermediate machine state, the initial one included (traces and
    invariant checks), with the run's context. *)
val run_word :
  ?cache:Cache.t ->
  ?inspect:(Machine.ctx -> Machine.state -> unit) ->
  t ->
  Word.t ->
  result

(** The paper's API: [parse g w] runs a fresh parser for [g] over the
    token list [w]. *)
val parse : Grammar.t -> Token.t list -> result
