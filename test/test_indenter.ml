(* Direct unit tests of the Python-style indentation pre-pass. *)

open Costar_langs
open Costar_lex

let check = Alcotest.(check bool)

(* Build raw tokens the way the MiniPython scanner would: content tokens
   with line/col, NEWLINE rows. *)
let raw kind ?(lexeme = kind) line col = { Scanner.kind; lexeme; line; col }
let nl line = raw "NEWLINE" ~lexeme:"\n" line 0

(* The indenter over [raws], with the end of input just past the last raw:
   the line after it for a newline, else the end of its lexeme. *)
let run raws =
  let eof =
    match List.rev raws with
    | [] -> (1, 0)
    | r :: _ when r.Scanner.kind = "NEWLINE" -> (r.line + 1, 0)
    | r :: _ -> (r.line, r.col + String.length r.lexeme)
  in
  Indenter.run ~eof raws

let kinds = function
  | Ok raws -> List.map (fun r -> r.Scanner.kind) raws
  | Error msg -> Alcotest.failf "indenter error: %s" msg

let test_flat_lines () =
  let input = [ raw "NAME" 1 0; nl 1; raw "NAME" 2 0; nl 2 ] in
  Alcotest.(check (list string))
    "no indents" [ "NAME"; "NEWLINE"; "NAME"; "NEWLINE" ]
    (kinds (run input))

let test_indent_dedent () =
  let input =
    [ raw "if" 1 0; raw ":" 1 2; nl 1; raw "NAME" 2 4; nl 2; raw "NAME" 3 0; nl 3 ]
  in
  Alcotest.(check (list string))
    "one block"
    [ "if"; ":"; "NEWLINE"; "INDENT"; "NAME"; "NEWLINE"; "DEDENT"; "NAME"; "NEWLINE" ]
    (kinds (run input))

let test_nested_dedents_at_eof () =
  let input =
    [ raw "a" 1 0; nl 1; raw "b" 2 2; nl 2; raw "c" 3 4; nl 3 ]
  in
  Alcotest.(check (list string))
    "two dedents at eof"
    [ "a"; "NEWLINE"; "INDENT"; "b"; "NEWLINE"; "INDENT"; "c"; "NEWLINE";
      "DEDENT"; "DEDENT" ]
    (kinds (run input))

let test_blank_lines_dropped () =
  let input = [ raw "a" 1 0; nl 1; nl 2; nl 3; raw "b" 4 0; nl 4 ] in
  Alcotest.(check (list string))
    "blank lines produce no NEWLINE" [ "a"; "NEWLINE"; "b"; "NEWLINE" ]
    (kinds (run input))

let test_implicit_join_in_brackets () =
  let input =
    [ raw "(" 1 0; nl 1; raw "NAME" 2 4; nl 2; raw ")" 3 0; nl 3 ]
  in
  (* Newlines inside parentheses vanish; the col-4 NAME is not an indent. *)
  Alcotest.(check (list string))
    "joined" [ "("; "NAME"; ")"; "NEWLINE" ]
    (kinds (run input))

let test_missing_final_newline () =
  let input = [ raw "a" 1 0 ] in
  Alcotest.(check (list string))
    "newline synthesized" [ "a"; "NEWLINE" ]
    (kinds (run input))

let test_inconsistent_dedent () =
  let input =
    [ raw "a" 1 0; nl 1; raw "b" 2 4; nl 2; raw "c" 3 2; nl 3 ]
  in
  match run input with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an inconsistent-dedent error"

let test_dedent_through_several_levels () =
  let input =
    [
      raw "a" 1 0; nl 1;
      raw "b" 2 2; nl 2;
      raw "c" 3 4; nl 3;
      raw "d" 4 0; nl 4;
    ]
  in
  Alcotest.(check (list string))
    "both levels closed before d"
    [ "a"; "NEWLINE"; "INDENT"; "b"; "NEWLINE"; "INDENT"; "c"; "NEWLINE";
      "DEDENT"; "DEDENT"; "d"; "NEWLINE" ]
    (kinds (run input))

let test_empty_input () =
  check "empty ok" true (run [] = Ok [])

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
