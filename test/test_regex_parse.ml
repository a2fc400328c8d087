(* Regex surface-syntax parser tests: each pattern is compiled and checked
   against accept/reject strings through a one-rule scanner. *)

open Costar_lex

let check = Alcotest.(check bool)

let matches pattern input =
  (* Full-match via the scanner: the rule must consume the entire input in
     one token. *)
  match Regex_parse.parse pattern with
  | Error msg -> Alcotest.failf "pattern %S: %s" pattern msg
  | Ok re -> (
    if Regex.nullable re then
      (* A nullable pattern can't drive the scanner; test emptiness only. *)
      input = ""
    else
      match Lex_oracle.scan_raws [ Scanner.rule "R" re ] input with
      | Ok [ raw ] -> String.equal raw.Lex_oracle.lexeme input
      | _ -> false)

let test_literals () =
  check "abc" true (matches "abc" "abc");
  check "abc no" false (matches "abc" "abd");
  check "escaped dot" true (matches "a\\.b" "a.b");
  check "escaped dot no" false (matches "a\\.b" "axb");
  check "newline escape" true (matches "a\\nb" "a\nb");
  check "string literal" true (matches "\"a.c\"" "a.c");
  check "string literal is literal" false (matches "\"a.c\"" "abc")

let test_classes () =
  check "range" true (matches "[a-c]+" "abcba");
  check "range excludes" false (matches "[a-c]+" "abd");
  check "multi range" true (matches "[a-z0-9_]+" "ab_9z");
  check "negated" true (matches "[^0-9]+" "hello!");
  check "negated excludes" false (matches "[^0-9]+" "hi5");
  check "literal dash" true (matches "[a-]+" "a-a");
  check "escaped in class" true (matches "[\\n\\t]+" "\n\t")

let test_operators () =
  check "star" true (matches "ab*c" "abbbc");
  check "star zero" true (matches "ab*c" "ac");
  check "plus" true (matches "ab+c" "abc");
  check "plus zero" false (matches "ab+c" "ac");
  check "opt present" true (matches "ab?c" "abc");
  check "opt absent" true (matches "ab?c" "ac");
  check "alt" true (matches "cat|dog" "dog");
  check "alt no" false (matches "cat|dog" "cow");
  check "group" true (matches "(ab)+" "ababab");
  check "group vs nogroup" false (matches "(ab)+" "abb");
  check "dot" true (matches "a.c" "axc");
  check "precedence |" true (matches "ab|cd" "cd");
  check "precedence | no" false (matches "ab|cd" "ad")

let test_realistic () =
  let number = "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?" in
  check "int" true (matches number "42");
  check "neg float" true (matches number "-3.14");
  check "exp" true (matches number "1.5e-10");
  check "leading zero" false (matches number "042");
  let ident = "[a-zA-Z_][a-zA-Z0-9_]*" in
  check "ident" true (matches ident "_foo42");
  check "ident no" false (matches ident "9lives")

let test_errors () =
  let bad p = match Regex_parse.parse p with Error _ -> true | Ok _ -> false in
  check "unbalanced paren" true (bad "(ab");
  check "stray close" true (bad "ab)");
  check "unterminated class" true (bad "[abc");
  check "empty class" true (bad "[]");
  check "inverted range" true (bad "[z-a]");
  check "dangling backslash" true (bad "ab\\");
  check "stray postfix" true (bad "*ab");
  check "unterminated string" true (bad "\"ab")

let test_parse_exn () =
  check "ok" true (Regex_parse.parse_exn "a" = Regex.chr 'a');
  check "raises" true
    (try
       ignore (Regex_parse.parse_exn "(");
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "classes" `Quick test_classes;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "realistic patterns" `Quick test_realistic;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "parse_exn" `Quick test_parse_exn;
  ]

let () = Alcotest.run "costar_regex_parse" [ ("regex-parse", suite) ]
