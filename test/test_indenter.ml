(* Direct unit tests of the Python-style indentation pre-pass: each input
   is scanned, run through [Indenter.run_buf], and checked against the
   expected kinds and against the reference indenter in [Lex_oracle]
   (kinds, lexemes, positions, error messages). *)

open Costar_grammar
open Costar_langs
open Costar_lex

let rules =
  Regex.
    [
      Scanner.rule "if" (str "if");
      Scanner.rule ":" (chr ':');
      Scanner.rule "(" (chr '(');
      Scanner.rule ")" (chr ')');
      Scanner.rule "NAME" (plus lower);
      Scanner.rule "NEWLINE" (chr '\n');
      Scanner.rule "WS" ~skip:true (plus (chr ' '));
    ]

let g =
  Grammar.define
    ~extra_terminals:
      ([ "INDENT"; "DEDENT" ] @ List.map (fun (r : Scanner.rule) -> r.name) rules)
    ~start:"S"
    [ ("S", [ [] ]) ]

let compiled = Scanner.compile (Scanner.make rules) g
let ids = Indenter.ids_of_grammar g

(* The logical stream of [input] as kind names, once it agrees with the
   reference. *)
let run input =
  let got =
    Scanner.with_scratch compiled input (function
      | Ok buf -> Indenter.run_buf ids buf
      | Error e -> Alcotest.failf "%S: %a" input Scanner.pp_error e)
  in
  let expected =
    match Lex_oracle.scan rules input with
    | Ok raws ->
      Lex_oracle.indent ~eof:(Lex_oracle.positions input (String.length input)) raws
    | Error e -> Alcotest.failf "%S: oracle: %a" input Scanner.pp_error e
  in
  match got, expected with
  | Ok buf, Ok raws ->
    let toks =
      List.map
        (fun (t : Token.t) ->
          { Lex_oracle.kind = Grammar.terminal_name g t.term; lexeme = t.lexeme;
            line = t.line; col = t.col })
        (Token_buf.to_tokens buf)
    in
    if toks <> raws then Alcotest.failf "%S: run_buf differs from the reference" input;
    Ok (List.map (fun r -> r.Lex_oracle.kind) toks)
  | Error m1, Error m2 ->
    Alcotest.(check string) "same error" m2 m1;
    Error m1
  | Ok _, Error m -> Alcotest.failf "%S: only the reference failed: %s" input m
  | Error m, Ok _ -> Alcotest.failf "%S: only run_buf failed: %s" input m

let kinds = function
  | Ok kinds -> kinds
  | Error msg -> Alcotest.failf "indenter error: %s" msg

let test_flat_lines () =
  Alcotest.(check (list string))
    "no indents" [ "NAME"; "NEWLINE"; "NAME"; "NEWLINE" ]
    (kinds (run "a\nb\n"))

let test_indent_dedent () =
  Alcotest.(check (list string))
    "one block"
    [ "if"; ":"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE"; "DEDENT"; "NAME"; "NEWLINE" ]
    (kinds (run "if:\n    x\ny\n"))

let test_nested_dedents_at_eof () =
  Alcotest.(check (list string))
    "two dedents at eof"
    [ "NAME"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE";
      "DEDENT"; "DEDENT" ]
    (kinds (run "a\n  b\n    c\n"))

let test_blank_lines_dropped () =
  Alcotest.(check (list string))
    "blank lines produce no NEWLINE" [ "NAME"; "NEWLINE"; "NAME"; "NEWLINE" ]
    (kinds (run "a\n\n   \nb\n"))

let test_implicit_join_in_brackets () =
  (* Newlines inside parentheses vanish; the col-4 NAME is not an indent. *)
  Alcotest.(check (list string))
    "joined" [ "("; "NAME"; ")"; "NEWLINE" ]
    (kinds (run "(\n    x\n)\n"))

let test_missing_final_newline () =
  Alcotest.(check (list string))
    "newline synthesized" [ "NAME"; "NEWLINE" ]
    (kinds (run "a"))

let test_inconsistent_dedent () =
  match run "a\n    b\n  c\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an inconsistent-dedent error"

let test_dedent_through_several_levels () =
  Alcotest.(check (list string))
    "both levels closed before d"
    [ "NAME"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE";
      "DEDENT"; "DEDENT"; "NAME"; "NEWLINE" ]
    (kinds (run "a\n  b\n    c\nd\n"))

let test_empty_input () =
  Alcotest.(check (list string)) "empty ok" [] (kinds (run ""))

let suite =
  [
    Alcotest.test_case "flat lines" `Quick test_flat_lines;
    Alcotest.test_case "indent/dedent" `Quick test_indent_dedent;
    Alcotest.test_case "dedents at eof" `Quick test_nested_dedents_at_eof;
    Alcotest.test_case "blank lines" `Quick test_blank_lines_dropped;
    Alcotest.test_case "implicit join" `Quick test_implicit_join_in_brackets;
    Alcotest.test_case "missing final newline" `Quick test_missing_final_newline;
    Alcotest.test_case "inconsistent dedent" `Quick test_inconsistent_dedent;
    Alcotest.test_case "multi-level dedent" `Quick
      test_dedent_through_several_levels;
    Alcotest.test_case "empty input" `Quick test_empty_input;
  ]

let () = Alcotest.run "costar_indenter" [ ("indenter", suite) ]
