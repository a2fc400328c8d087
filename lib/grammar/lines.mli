(** Newline-offset table: lazy position recovery for zero-copy lexing.

    The scanner records only byte offsets; line/column positions are
    recovered on demand by binary search in this table, so position
    bookkeeping costs nothing on the scanning hot path and is paid only
    for the tokens that actually need a position (errors, tree leaves). *)

type t

(** One O(n) pass over the input. *)
val build : string -> t

val num_lines : t -> int

(** [pos t ofs] is the (1-based line, 0-based column) of byte offset
    [ofs].  Offsets past the end of input report a position on the last
    line (or the line after it, if the input ends with a newline) —
    exactly where an end-of-input message should point. *)
val pos : t -> int -> int * int

(** [locate t ~hint ofs] is the 0-based index of the line containing
    [ofs] (so [pos t ofs = (k + 1, ofs - line_offset t k)]).  Line [hint]
    and the line after it are tried first, in O(1); any other line, or a
    [hint] out of range, falls back to the binary search.  A reader that
    walks the input in order passes the previous answer as [hint]. *)
val locate : t -> hint:int -> int -> int

(** Byte offset of the first character of line index [k] (0-based). *)
val line_offset : t -> int -> int

(** Byte offset of the first character of the line containing [ofs]. *)
val line_start : t -> int -> int
