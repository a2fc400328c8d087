(** Common interface for the benchmark languages (paper, §6.1).

    Each language packages a desugared BNF grammar, a DFA scanner, a
    tokenizer (scanner plus any post-passes, e.g. Python's indenter), and a
    deterministic synthetic-corpus generator standing in for the paper's
    data sets (see DESIGN.md, substitutions table). *)

open Costar_grammar

type t = {
  name : string;
  grammar : Grammar.t Lazy.t;
  tokenize : string -> (Token.t list, string) result;
      (** The token list of [tokenize_buf] ({!Token_buf.to_tokens}). *)
  tokenize_buf : string -> (Token_buf.t, string) result;
      (** The pipeline: compiled scanner straight into a struct-of-arrays
          token buffer, plus any post-pass.  Tokens a post-pass synthesizes
          at end of input (minipy's last NEWLINE and DEDENTs) are
          zero-width, at the start of the line after the last token when
          the input has that line, and at the end of input otherwise: for
          ["if x:\n    y = 1"] that is 2:9, the offset
          [String.length input]. *)
  generate : seed:int -> size:int -> string;
      (** [generate ~seed ~size] produces a source file; [size] roughly
          scales the number of syntactic items. *)
  scanner : Costar_lex.Scanner.t Lazy.t;
      (** The underlying DFA scanner, before any post-pass (terminals
          Python's indenter synthesizes, INDENT/DEDENT, never appear in
          it).  Coverage tooling uses it to enumerate and invert lexer-DFA
          transitions. *)
}

(** [make ~name ~grammar ~scanner ?post ~generate ()] is a language whose
    [tokenize_buf] scans with [scanner] compiled against [grammar] (once,
    on first use), then runs [post g] over the domain's scan scratch
    ({!Costar_lex.Scanner.with_scratch}); without [post], the result is
    an exact-size copy of the scan. *)
let make ~name ~grammar ~scanner
    ?(post = fun _ -> fun buf -> Ok (Token_buf.copy buf)) ~generate () =
  let module Scanner = Costar_lex.Scanner in
  let compiled =
    lazy (Scanner.compile (Lazy.force scanner) (Lazy.force grammar))
  in
  let finish =
    lazy
      (let post = post (Lazy.force grammar) in
       function
       | Ok buf -> post buf
       | Error e -> Error (Fmt.str "%a" Scanner.pp_error e))
  in
  let tokenize_buf input =
    Scanner.with_scratch (Lazy.force compiled) input (Lazy.force finish)
  in
  {
    name;
    grammar;
    tokenize = (fun input -> Result.map Token_buf.to_tokens (tokenize_buf input));
    tokenize_buf;
    generate;
    scanner;
  }

let grammar l = Lazy.force l.grammar
let tokenize l = l.tokenize
let tokenize_buf l = l.tokenize_buf
let generate l = l.generate
let scanner l = Lazy.force l.scanner

(** Tokenize, failing loudly — for tests and examples where the input is
    known to be lexable. *)
let tokenize_exn l input =
  match l.tokenize input with
  | Ok toks -> toks
  | Error msg -> invalid_arg (Printf.sprintf "%s lexer: %s" l.name msg)

(** Buffer pipeline, failing loudly. *)
let tokenize_buf_exn l input =
  match l.tokenize_buf input with
  | Ok buf -> buf
  | Error msg -> invalid_arg (Printf.sprintf "%s lexer: %s" l.name msg)
