(* Lexer-specification file tests: the textual rule format that, together
   with the EBNF grammar format, defines a language entirely in text. *)

open Costar_lex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let calc_spec =
  {|
    // calculator tokens
    NUM  : "[0-9]+(\.[0-9]+)?" ;
    '+'  : "\+" ;
    '*'  : "\*" ;
    '('  : "\(" ;
    ')'  : "\)" ;
    skip WS : "[ \t\n]+" ;
  |}

let test_scanner_from_spec () =
  match Spec.rules_of_string calc_spec with
  | Error msg -> Alcotest.fail msg
  | Ok rules -> (
    match Lex_oracle.scan_raws rules "1 + 2.5 * (3)" with
    | Ok raws ->
      Alcotest.(check (list string))
        "kinds"
        [ "NUM"; "+"; "NUM"; "*"; "("; "NUM"; ")" ]
        (List.map (fun r -> r.Lex_oracle.kind) raws)
    | Error e -> Alcotest.failf "scan failed: %a" Scanner.pp_error e)

let test_skip_rules () =
  match Spec.rules_of_string calc_spec with
  | Error msg -> Alcotest.fail msg
  | Ok rules ->
    check_int "six rules" 6 (List.length rules);
    let skips =
      List.filter (fun r -> r.Scanner.action = Scanner.Skip) rules
    in
    check_int "one skip" 1 (List.length skips);
    Alcotest.(check string) "WS" "WS" (List.hd skips).Scanner.name

let test_end_to_end_with_grammar () =
  let g =
    match
      Costar_ebnf.Parse.grammar_of_string
        "expr : term ('+' term)* ; term : NUM | '(' expr ')' ;"
    with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  match Spec.scanner_of_string calc_spec with
  | Error msg -> Alcotest.fail msg
  | Ok sc -> (
    match Scanner.tokenize sc g "(1 + 2) + 3" with
    | Error e -> Alcotest.failf "tokenize: %a" Scanner.pp_error e
    | Ok toks -> (
      match Costar_core.Parser.parse g toks with
      | Costar_core.Parser.Unique _ -> ()
      | r ->
        Alcotest.failf "expected Unique, got %a" (Costar_core.Parser.pp_result g) r))

let test_errors () =
  let bad s = match Spec.rules_of_string s with Error _ -> true | Ok _ -> false in
  check "missing colon" true (bad "NUM \"[0-9]+\" ;");
  check "missing semi" true (bad "NUM : \"[0-9]+\"");
  check "missing pattern" true (bad "NUM : ;");
  check "bad regex" true (bad "NUM : \"[\" ;");
  check "nullable pattern" true
    (match Spec.scanner_of_string "X : \"a*\" ;" with Error _ -> true | Ok _ -> false);
  check "empty spec" true (bad "  // nothing\n");
  check "stray char" true (bad "NUM := \"[0-9]\" ;")

let test_empty_matching_rule () =
  (* A rule whose regex accepts the empty string would make the scanner
     livelock (zero-width matches forever).  The spec layer still parses it
     — with spans, so lint can point at the offending pattern — but scanner
     construction refuses to run it. *)
  let src = "A : \"a+\" ;\nB : \"b*\" ;" in
  (match Spec.srules_of_string src with
  | Error msg -> Alcotest.failf "spec should parse: %s" msg
  | Ok srules ->
    check_int "both rules kept" 2 (List.length srules);
    let b = List.nth srules 1 in
    Alcotest.(check string) "name" "B" b.Spec.rule.Scanner.name;
    check "pattern nullable" true (Regex.nullable b.Spec.rule.Scanner.re);
    check_int "pattern span line" 2
      b.Spec.pattern_span.Costar_grammar.Loc.start_line);
  (* scanner_of_string surfaces the same problem as a hard error naming the
     rule, and never yields a scanner that could loop. *)
  match Spec.scanner_of_string src with
  | Ok _ -> Alcotest.fail "nullable rule must not build a scanner"
  | Error msg ->
    check "error names the rule" true
      (let n = String.length "B" in
       let rec at i =
         i + n <= String.length msg && (String.sub msg i n = "B" || at (i + 1))
       in
       at 0)

let test_quoted_names_and_escapes () =
  match Spec.rules_of_string {| 'if' : "if" ; NL : "\n" ; Q : "\"" ; |} with
  | Error msg -> Alcotest.fail msg
  | Ok [ r1; _; _ ] -> Alcotest.(check string) "quoted name" "if" r1.Scanner.name
  | Ok _ -> Alcotest.fail "expected three rules"

let suite =
  [
    Alcotest.test_case "scanner from spec" `Quick test_scanner_from_spec;
    Alcotest.test_case "skip rules" `Quick test_skip_rules;
    Alcotest.test_case "end-to-end with grammar" `Quick
      test_end_to_end_with_grammar;
    Alcotest.test_case "spec errors" `Quick test_errors;
    Alcotest.test_case "empty-matching rule" `Quick test_empty_matching_rule;
    Alcotest.test_case "quoted names and escapes" `Quick
      test_quoted_names_and_escapes;
  ]

let () = Alcotest.run "costar_spec" [ ("lexer-spec", suite) ]
