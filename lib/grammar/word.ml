(* The parser core's view of its input: a dense off-heap array of
   terminal ids plus the token source it came from.  Prediction and the
   machine's consume step read [kinds.(i)] directly; a boxed [Token.t] is
   built only when a consumer asks for one (a viewed parse-tree leaf, an
   error message).

   Both token sources lower to this one representation: [of_buf] wraps
   a scanner's token buffer ([token] slices the lexeme and locates the
   position on demand), [of_tokens] wraps tokens that already exist
   (terminal-name input, token-level mutants; [token] just indexes
   them).  [of_buf]
   shares the buffer's bigarray storage through views narrowed to the
   tokens — no copy, and the cursor adds nothing to GC scan work
   (DESIGN.md §13).  A word holds data only, no closure, so a parse tree
   that points into it marshals as plain data. *)

type source =
  | Buf of Token_buf.t
  | Tokens of Token.t array

type t = {
  kinds : Token_buf.int_array;  (** terminal id per token; [0 .. len-1] *)
  len : int;
  src : source;
}

let of_tokens toks =
  let arr = Array.of_list toks in
  let n = Array.length arr in
  let kinds : Token_buf.int_array =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max 1 n)
  in
  Array.iteri (fun i tok -> Bigarray.Array1.set kinds i (Int32.of_int (Token.term tok))) arr;
  { kinds; len = n; src = Tokens arr }

let of_buf buf =
  let buf = Token_buf.trimmed buf in
  { kinds = Token_buf.kinds_unsafe buf; len = Token_buf.length buf; src = Buf buf }

let length w = w.len
let kind w i = Int32.to_int (Bigarray.Array1.get w.kinds i)

let token w i =
  match w.src with Buf b -> Token_buf.token b i | Tokens a -> a.(i)

let lexeme w i =
  match w.src with
  | Buf b -> Token_buf.lexeme b i
  | Tokens a -> a.(i).Token.lexeme

let to_tokens w = List.init w.len (token w)

(* Remaining input from position [i], as a list (trace dumps). *)
let drop w i = List.init (max 0 (w.len - i)) (fun k -> token w (i + k))
