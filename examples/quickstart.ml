(* Quickstart: define a grammar, build a lexer, parse, and inspect the tree.

   Run with:  dune exec examples/quickstart.exe *)

open Costar_grammar
open Costar_lex

let () =
  (* 1. A grammar, written in the textual EBNF format and desugared to BNF.
        Lowercase = nonterminal, uppercase = token kind, quotes = literal. *)
  let grammar =
    match
      Costar_ebnf.Parse.grammar_of_string
        {|
          greeting : salutation NAME ('!' | '.') ;
          salutation : 'hello' | 'goodbye' ('cruel')? ;
        |}
    with
    | Ok g -> g
    | Error msg -> failwith msg
  in

  (* 2. A lexer built from regex combinators.  Rule names must match the
        grammar's terminals. *)
  let scanner =
    Scanner.make
      [
        Scanner.rule "hello" (Regex.str "hello");
        Scanner.rule "goodbye" (Regex.str "goodbye");
        Scanner.rule "cruel" (Regex.str "cruel");
        Scanner.rule "NAME" (Regex.plus Regex.letter);
        Scanner.rule "!" (Regex.chr '!');
        Scanner.rule "." (Regex.chr '.');
        Scanner.rule "WS" ~skip:true (Regex.plus (Regex.chr ' '));
      ]
  in

  (* 3. Bind the lexer to the grammar and build the parser once, then run
        them on many inputs.  A scan fills a token buffer, which the parser
        reads as a word. *)
  let lexer = Scanner.compile scanner grammar in
  let parser = Costar_core.Parser.make grammar in
  List.iter
    (fun input ->
      Printf.printf "%-24s => " (String.escaped input);
      match Scanner.scan_buf lexer input with
      | Error e -> Fmt.pr "%a@." Scanner.pp_error e
      | Ok tokens -> (
        match Costar_core.Parser.run_word parser (Word.of_buf tokens) with
        | Costar_core.Parser.Unique tree ->
          (* Mid-line: Tree.pp lays the tree out as at a line start and
             prints it as one block. *)
          Fmt.pr "unique parse %a@." (Tree.pp grammar) tree
        | Costar_core.Parser.Ambig tree ->
          Fmt.pr "AMBIGUOUS, e.g. %a@." (Tree.pp grammar) tree
        | Costar_core.Parser.Reject reason -> Fmt.pr "rejected: %s@." reason
        | Costar_core.Parser.Error e ->
          Fmt.pr "error: %s@." (Costar_core.Types.error_to_string grammar e)))
    [
      "hello world!";
      "goodbye cruel world.";
      "goodbye world!";
      "hello!";
      "hello hello world!";
    ]
