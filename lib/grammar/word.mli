(** The array cursor the parser core runs on.

    A word is a dense off-heap array of terminal ids (a native-int
    bigarray, shared with the producing {!Token_buf}) plus the token
    source it indexes; the core consumes [(word, index)] pairs so the
    prediction fast path is pure unboxed array reads, and a parse-tree
    leaf is just a token index into its word.  Produced from either
    frontend: {!of_tokens} (legacy list pipeline) or {!of_buf} (zero-copy
    buffer pipeline).  A word holds no closure, so trees over it marshal
    without [Marshal.Closures]. *)

(** Where the tokens come from: a scanner buffer (tokens materialized on
    demand) or the tokens themselves. *)
type source =
  | Buf of Token_buf.t
  | Tokens of Token.t array

type t = {
  kinds : Token_buf.int_array;
      (** terminal id per token; only [0 .. len-1] valid *)
  len : int;
  src : source;
}

val of_tokens : Token.t list -> t

(** A word over a scanner buffer.  Trees parsed from it point into the
    buffer, so the buffer must not be cleared while they are alive. *)
val of_buf : Token_buf.t -> t

val length : t -> int
val kind : t -> int -> Symbols.terminal

(** Materialized token at [i] (boxed; allocates for a buffer source). *)
val token : t -> int -> Token.t

(** The lexeme of token [i] (a fresh slice for a buffer source). *)
val lexeme : t -> int -> string

val to_tokens : t -> Token.t list

(** Tokens from position [i] to the end, materialized. *)
val drop : t -> int -> Token.t list
