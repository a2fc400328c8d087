(* Struct-of-arrays token buffer: the zero-copy counterpart of
   [Token.t list].  A scan writes three parallel off-heap arrays —
   terminal ids and start/end byte offsets into the (shared, unsliced)
   input — and nothing else: no per-token records, no lexeme substrings,
   no line/column bookkeeping.  Lexemes and positions are materialized
   lazily, per token, only where they are actually consumed (parse-tree
   leaves, error messages, dumps).

   The arrays are [Bigarray.Array1]s of native ints, not [int array]s:
   bigarray storage lives outside the OCaml heap, so a buffer contributes
   nothing to the minor heap and nothing to GC scan work — the off-heap
   data plane of DESIGN.md §13.  The native-int kind (rather than int32) is what keeps reads
   unboxed unconditionally: [Array1.unsafe_get] on an int-kind bigarray
   returns a plain [int] in all compilation modes, while an int32 kind
   would return a boxed [Int32.t]. *)

type int_array = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let alloc n : int_array =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  mutable input : string;  (** the scanned input; lexemes are slices of it *)
  mutable len : int;
  mutable kinds : int_array;  (** terminal id per token *)
  mutable starts : int_array;  (** byte offset of the first lexeme byte *)
  mutable ends : int_array;  (** byte offset one past the last lexeme byte *)
  mutable lines : Lines.t option;  (** built on first position query *)
  mutable line_hint : int;
      (** line index of the last position query: tokens are mostly
          materialized in input order, so the next one is usually on the
          same line or the next *)
}

let create ?(capacity = 64) input =
  let capacity = max 8 capacity in
  {
    input;
    len = 0;
    kinds = alloc capacity;
    starts = alloc capacity;
    ends = alloc capacity;
    lines = None;
    line_hint = 0;
  }

(* Pre-sizing from the input length keeps steady-state scanning free of
   even the amortized growth copies: one token per ~8 bytes is an
   overestimate for every bundled language. *)
let capacity_for input = (String.length input / 8) + 16

let create_for_input input = create ~capacity:(capacity_for input) input

let length b = b.len
let input b = b.input

(* Forget the tokens but keep the arrays (and the newline table — it
   depends only on the input): re-scanning the same input allocates
   nothing.  Parse-tree leaves are indices into the buffer, so a tree
   built over it reads whatever the next scan writes there. *)
let clear b = b.len <- 0

(* The same storage, narrowed to the tokens written: sub-array views, no
   copy.  What holds the view (a parse tree's word) then marshals only
   the tokens, whatever the buffer's spare capacity. *)
let trimmed b =
  let used (a : int_array) = Bigarray.Array1.sub a 0 b.len in
  {
    b with
    kinds = used b.kinds;
    starts = used b.starts;
    ends = used b.ends;
  }

let grow b =
  let cap = Bigarray.Array1.dim b.kinds in
  let extend (a : int_array) =
    let bigger = alloc (2 * cap) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub bigger 0 cap);
    bigger
  in
  b.kinds <- extend b.kinds;
  b.starts <- extend b.starts;
  b.ends <- extend b.ends

let add b ~kind ~start ~stop =
  if b.len = Bigarray.Array1.dim b.kinds then grow b;
  let i = b.len in
  Bigarray.Array1.unsafe_set b.kinds i kind;
  Bigarray.Array1.unsafe_set b.starts i start;
  Bigarray.Array1.unsafe_set b.ends i stop;
  b.len <- i + 1

(* One call per run of tokens, not per token: the indenter copies whole
   lines verbatim. *)
let append_range dst src i j =
  if i < 0 || j > src.len || i > j then invalid_arg "Token_buf.append_range";
  let k = j - i in
  while dst.len + k > Bigarray.Array1.dim dst.kinds do
    grow dst
  done;
  let at = dst.len - i in
  for t = i to j - 1 do
    Bigarray.Array1.unsafe_set dst.kinds (at + t) (Bigarray.Array1.unsafe_get src.kinds t);
    Bigarray.Array1.unsafe_set dst.starts (at + t) (Bigarray.Array1.unsafe_get src.starts t);
    Bigarray.Array1.unsafe_set dst.ends (at + t) (Bigarray.Array1.unsafe_get src.ends t)
  done;
  dst.len <- dst.len + k

let kind b i = Bigarray.Array1.get b.kinds i
let start_ofs b i = Bigarray.Array1.get b.starts i
let end_ofs b i = Bigarray.Array1.get b.ends i

(* The backing array, possibly longer than [length]; pair it with
   [length] (as {!Word.of_buf} does) rather than iterating it blindly. *)
let kinds_unsafe b = b.kinds

let lexeme b i = String.sub b.input (start_ofs b i) (end_ofs b i - start_ofs b i)

let lines b =
  match b.lines with
  | Some l -> l
  | None ->
    let l = Lines.build b.input in
    b.lines <- Some l;
    l

(* The line index of byte offset [ofs], through the last-line hint.  The
   hint is only a guess — [Lines.locate] checks it — so a stale or racing
   value costs a binary search, never a wrong position. *)
let line_of b lines ofs =
  let k = Lines.locate lines ~hint:b.line_hint ofs in
  b.line_hint <- k;
  k

let pos b i =
  let lines = lines b and ofs = start_ofs b i in
  let k = line_of b lines ofs in
  (k + 1, ofs - Lines.line_offset lines k)

(* Built field by field: no [(line, col)] pair and no optional-argument
   boxes on the way to the record. *)
let token b i =
  let lines = lines b and ofs = start_ofs b i in
  let k = line_of b lines ofs in
  {
    Token.term = kind b i;
    lexeme = String.sub b.input ofs (end_ofs b i - ofs);
    line = k + 1;
    col = ofs - Lines.line_offset lines k;
  }

let to_tokens b = List.init b.len (token b)
