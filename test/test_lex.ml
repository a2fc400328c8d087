(* Lexer engine tests: regexes, NFA/DFA construction, maximal munch,
   rule priority, positions, skip rules, error reporting. *)

open Costar_lex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let kinds raws = List.map (fun r -> r.Scanner.kind) raws
let lexemes raws = List.map (fun r -> r.Scanner.lexeme) raws

let simple_scanner =
  Scanner.make
    [
      Scanner.rule "IF" (Regex.str "if");
      Scanner.rule "ID" (Regex.plus Regex.letter);
      Scanner.rule "NUM" (Regex.plus Regex.digit);
      Scanner.rule "WS" ~skip:true (Regex.plus (Regex.set " \t\n"));
    ]

let scan_ok s input =
  match Scanner.scan s input with
  | Ok raws -> raws
  | Error e -> Alcotest.failf "unexpected lex error: %a" Scanner.pp_error e

let test_basic () =
  let raws = scan_ok simple_scanner "if iffy 42 x" in
  Alcotest.(check (list string))
    "kinds" [ "IF"; "ID"; "NUM"; "ID" ] (kinds raws);
  Alcotest.(check (list string))
    "lexemes" [ "if"; "iffy"; "42"; "x" ] (lexemes raws)

let test_maximal_munch () =
  (* "iffy" must lex as one ID, not IF + "fy" *)
  let raws = scan_ok simple_scanner "iffy" in
  check_int "one token" 1 (List.length raws);
  check_str "kind" "ID" (List.hd raws).Scanner.kind

let test_rule_priority () =
  (* "if" matches both IF and ID at the same length: first rule wins. *)
  let raws = scan_ok simple_scanner "if" in
  check_str "IF wins" "IF" (List.hd raws).Scanner.kind;
  (* Swapping the rules makes ID win. *)
  let flipped =
    Scanner.make
      [ Scanner.rule "ID" (Regex.plus Regex.letter); Scanner.rule "IF" (Regex.str "if") ]
  in
  let raws = scan_ok flipped "if" in
  check_str "ID wins" "ID" (List.hd raws).Scanner.kind

let test_positions () =
  let raws = scan_ok simple_scanner "if\n  foo 12" in
  match raws with
  | [ t1; t2; t3 ] ->
    check_int "t1 line" 1 t1.Scanner.line;
    check_int "t1 col" 0 t1.Scanner.col;
    check_int "t2 line" 2 t2.Scanner.line;
    check_int "t2 col" 2 t2.Scanner.col;
    check_int "t3 col" 6 t3.Scanner.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lex_error () =
  match Scanner.scan simple_scanner "ab $ cd" with
  | Error e ->
    check_int "line" 1 e.Scanner.err_line;
    check_int "col" 3 e.Scanner.err_col
  | Ok _ -> Alcotest.fail "expected a lexical error"

let test_nullable_rule_rejected () =
  check "nullable rule rejected" true
    (try
       ignore (Scanner.make [ Scanner.rule "BAD" (Regex.star Regex.digit) ]);
       false
     with Invalid_argument _ -> true)

let test_string_literals () =
  (* JSON-style string: " (escape | non-quote)* " *)
  let string_re =
    Regex.(
      seq
        [
          chr '"';
          star (alt [ seq [ chr '\\'; any ]; none_of "\"\\" ]);
          chr '"';
        ])
  in
  let s =
    Scanner.make
      [
        Scanner.rule "STRING" string_re;
        Scanner.rule "WS" ~skip:true (Regex.plus (Regex.chr ' '));
      ]
  in
  let raws = scan_ok s {|"hello" "a\"b" ""|} in
  Alcotest.(check (list string))
    "lexemes"
    [ {|"hello"|}; {|"a\"b"|}; {|""|} ]
    (lexemes raws)

let test_comments_skipped () =
  let s =
    Scanner.make
      [
        Scanner.rule "ID" (Regex.plus Regex.letter);
        Scanner.rule "COMMENT" ~skip:true
          Regex.(seq [ str "//"; star (none_of "\n") ]);
        Scanner.rule "WS" ~skip:true (Regex.plus (Regex.set " \n"));
      ]
  in
  let raws = scan_ok s "ab // trailing\ncd" in
  Alcotest.(check (list string)) "lexemes" [ "ab"; "cd" ] (lexemes raws)

let test_tokenize_against_grammar () =
  let open Costar_grammar in
  let g =
    Grammar.define ~start:"S"
      [ ("S", [ [ Grammar.t "ID"; Grammar.t "NUM" ] ]) ]
  in
  (match Scanner.tokenize simple_scanner g "abc 7" with
  | Ok toks ->
    Alcotest.(check (list string))
      "lexemes" [ "abc"; "7" ]
      (List.map Token.lexeme toks)
  | Error e -> Alcotest.failf "unexpected: %a" Scanner.pp_error e);
  (* IF is not a terminal of g: resolution fails. *)
  match Scanner.tokenize simple_scanner g "if 7" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a resolution error"

let test_ranges_and_classes () =
  let s =
    Scanner.make
      [
        Scanner.rule "HEX"
          Regex.(seq [ str "0x"; plus (alt [ digit; range 'a' 'f' ]) ]);
        Scanner.rule "NUM" (Regex.plus Regex.digit);
        Scanner.rule "WS" ~skip:true (Regex.plus (Regex.chr ' '));
      ]
  in
  let raws = scan_ok s "0xff 123 0x0" in
  Alcotest.(check (list string)) "kinds" [ "HEX"; "NUM"; "HEX" ] (kinds raws)

let test_regex_nullable () =
  check "eps nullable" true (Regex.nullable Regex.eps);
  check "star nullable" true (Regex.nullable (Regex.star (Regex.chr 'a')));
  check "opt nullable" true (Regex.nullable (Regex.opt (Regex.chr 'a')));
  check "plus not nullable" false (Regex.nullable (Regex.plus (Regex.chr 'a')));
  check "str not nullable" false (Regex.nullable (Regex.str "ab"));
  check "empty str nullable" true (Regex.nullable (Regex.str ""))

let prop_scanner_total =
  (* The scanner is total: any byte string either scans cleanly (and the
     concatenated lexemes plus skipped spans reconstruct the input) or
     yields a located error — never an exception. *)
  QCheck.Test.make ~count:1000 ~name:"scanner never raises"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 60) QCheck.Gen.printable)
    (fun input ->
      match Scanner.scan simple_scanner input with
      | Ok raws ->
        List.for_all (fun r -> String.length r.Scanner.lexeme > 0) raws
      | Error e -> e.Scanner.err_line >= 1 && e.Scanner.err_col >= 0)

let prop_scanner_reconstructs =
  (* Without skip rules, the lexemes concatenate to exactly the input. *)
  QCheck.Test.make ~count:1000 ~name:"lexemes reconstruct input"
    QCheck.(
      string_gen_of_size
        (QCheck.Gen.int_range 0 60)
        (QCheck.Gen.oneofl [ 'a'; 'b'; '0'; '1'; ' ' ]))
    (fun input ->
      let sc =
        Scanner.make
          [
            Scanner.rule "WORD" (Regex.plus Regex.letter);
            Scanner.rule "NUM" (Regex.plus Regex.digit);
            Scanner.rule "SPACE" (Regex.plus (Regex.chr ' '));
          ]
      in
      match Scanner.scan sc input with
      | Ok raws ->
        String.equal input
          (String.concat "" (List.map (fun r -> r.Scanner.lexeme) raws))
      | Error _ -> false)

(* The subset construction numbers states in the order a byte-by-byte walk
   reaches them, and the class compression follows from the tables, so a
   scanner's tables are a function of its rules.  Each bundled scanner's
   state count, class count and a digest of its start state, byte classes,
   accepting rules and class transitions are pinned: a change to how the
   DFA is built must leave them byte for byte as they are. *)
let dfa_digest d =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  add (Dfa.start d);
  add (Dfa.num_states d);
  add (Dfa.num_classes d);
  Array.iter add (Dfa.class_table d);
  for s = 0 to Dfa.num_states d - 1 do
    add (Dfa.accept_ix d s);
    for k = 0 to Dfa.num_classes d - 1 do
      add (Dfa.next_class d s k)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bundled_scanners_pinned () =
  List.iter
    (fun (l, states, classes, digest) ->
      let name = l.Costar_langs.Lang.name in
      match Costar_langs.Lang.scanner l with
      | None -> Alcotest.failf "%s has no scanner" name
      | Some sc ->
        let d = Scanner.dfa sc in
        check_int (name ^ " states") states (Dfa.num_states d);
        check_int (name ^ " classes") classes (Dfa.num_classes d);
        check_str (name ^ " tables") digest (dfa_digest d))
    Costar_langs.
      [
        (Json.lang, 38, 25, "aec2c4d2a76188403a0126c71c192266");
        (Xml.lang, 60, 29, "596b59c7b0c92927271fa8591002b4ba");
        (Dot.lang, 61, 34, "72e59a685831ffd28b4d71b28e206c12");
        (Minipy.lang, 192, 60, "985c00bf5563921210f1e4ea34826525");
      ]

let suite =
  [
    Alcotest.test_case "basic scanning" `Quick test_basic;
    Alcotest.test_case "maximal munch" `Quick test_maximal_munch;
    Alcotest.test_case "rule priority" `Quick test_rule_priority;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "lex error position" `Quick test_lex_error;
    Alcotest.test_case "nullable rule rejected" `Quick test_nullable_rule_rejected;
    Alcotest.test_case "string literals" `Quick test_string_literals;
    Alcotest.test_case "comments skipped" `Quick test_comments_skipped;
    Alcotest.test_case "tokenize vs grammar" `Quick test_tokenize_against_grammar;
    Alcotest.test_case "ranges and classes" `Quick test_ranges_and_classes;
    Alcotest.test_case "regex nullability" `Quick test_regex_nullable;
    Alcotest.test_case "bundled scanners pinned" `Quick
      test_bundled_scanners_pinned;
    QCheck_alcotest.to_alcotest prop_scanner_total;
    QCheck_alcotest.to_alcotest prop_scanner_reconstructs;
  ]

let () = Alcotest.run "costar_lex" [ ("lex", suite) ]
