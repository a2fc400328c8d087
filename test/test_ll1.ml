(* LL(1) baseline tests, including experiment E7's headline claim: the XML
   benchmark grammar has LL(1) conflicts (it is not LL(k) for any k), while
   an LL(1)-factored JSON grammar builds cleanly and parses. *)

open Costar_grammar
open Costar_langs
module Ll1 = Costar_ll1.Ll1

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* An LL(1)-factored JSON grammar (left-factored '{'/'[' alternatives). *)
let json_ll1 =
  match
    Costar_ebnf.Parse.grammar_of_string ~start:"json"
      {|
        json    : value ;
        value   : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
        obj     : '{' members '}' ;
        members : pair (',' pair)* | ;
        pair    : STRING ':' value ;
        arr     : '[' elements ']' ;
        elements : value (',' value)* | ;
      |}
  with
  | Ok g -> g
  | Error msg -> failwith msg

let test_build_ll1_json () =
  match Ll1.build json_ll1 with
  | Ok _ -> ()
  | Error cs ->
    Alcotest.failf "unexpected conflicts: %a"
      Fmt.(list ~sep:(any "; ") (Ll1.pp_conflict json_ll1))
      cs

let test_parse_ll1_json () =
  match Ll1.build json_ll1 with
  | Error _ -> Alcotest.fail "table build failed"
  | Ok table -> (
    let toks s =
      match Json.lang.Lang.tokenize s with
      | Ok raw ->
        (* Re-resolve terminals against the LL(1) grammar (same names). *)
        List.map
          (fun t ->
            match
              Grammar.terminal_of_name json_ll1
                (Grammar.terminal_name (Lang.grammar Json.lang) t.Token.term)
            with
            | Some a -> Token.make a t.Token.lexeme
            | None -> Alcotest.fail "terminal mismatch")
          raw
      | Error e -> Alcotest.failf "lex: %s" e
    in
    (match Ll1.parse table (toks {|{"a": [1, true], "b": {}}|}) with
    | Ok v ->
      check "derives" true
        (Derivation.recognizes_start json_ll1 (toks {|{"a": [1, true], "b": {}}|}) v)
    | Error msg -> Alcotest.failf "parse: %s" msg);
    match Ll1.parse table (toks {|{"a": }|}) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected reject")

let test_xml_not_ll1 () =
  (* E7: the ANTLR-style XML grammar is not LL(1): the two element
     alternatives share the unbounded prefix '<' NAME attribute*. *)
  let g = Lang.grammar Xml.lang in
  let cs = Ll1.conflicts g in
  check "has conflicts" true (cs <> []);
  (* The conflict involves the element rule (or a nonterminal synthesized
     from it). *)
  check "element-related conflict" true
    (List.exists
       (fun c ->
         let name = Grammar.nonterminal_name g c.Ll1.nt in
         String.length name >= 4 && String.sub name 0 4 = "elem"
         || String.length name >= 4 && String.sub name 0 4 = "star")
       cs)

let test_antlr_json_not_ll1 () =
  (* The ANTLR-form JSON grammar (unfactored '{'/'[') is not LL(1) either —
     CoStar handles it, the LL(1) generator cannot. *)
  let g = Lang.grammar Json.lang in
  check "conflicts" true (Ll1.conflicts g <> [])

let test_ll1_agrees_with_costar () =
  (* On an LL(1) grammar both parsers accept the same inputs with the same
     trees. *)
  match Ll1.build json_ll1 with
  | Error _ -> Alcotest.fail "table build failed"
  | Ok table ->
    List.iter
      (fun (seed, size) ->
        let src = Lang.generate Json.lang ~seed ~size in
        match Json.lang.Lang.tokenize src with
        | Error e -> Alcotest.failf "lex: %s" e
        | Ok toks_orig ->
          let toks =
            List.map
              (fun t ->
                match
                  Grammar.terminal_of_name json_ll1
                    (Grammar.terminal_name (Lang.grammar Json.lang) t.Token.term)
                with
                | Some a -> Token.make a t.Token.lexeme
                | None -> Alcotest.fail "terminal mismatch")
              toks_orig
          in
          let ll1_result = Ll1.parse table toks in
          let costar_result = Costar_core.Parser.parse json_ll1 toks in
          (match ll1_result, costar_result with
          | Ok v1, Costar_core.Parser.Unique v2 ->
            check "same tree" true (Tree.equal v1 v2)
          | Error _, (Costar_core.Parser.Reject _ | Costar_core.Parser.Error _) -> ()
          | _ -> Alcotest.fail "LL(1) and CoStar disagree"))
      [ (11, 10); (12, 40); (13, 120) ]

let test_eof_column () =
  (* Nullable start: selecting a production at end of input uses the eof
     column. *)
  let g =
    Grammar.define ~start:"S"
      [ ("S", [ []; [ Grammar.t "x"; Grammar.n "S" ] ]) ]
  in
  match Ll1.build g with
  | Error _ -> Alcotest.fail "grammar is LL(1)"
  | Ok table ->
    (match Ll1.parse table [] with
    | Ok v when (match Tree.view v with Tree.Node (_, []) -> true | _ -> false) -> ()
    | _ -> Alcotest.fail "expected empty-word parse");
    (match Ll1.parse table (Grammar.tokens g [ "x"; "x" ]) with
    | Ok v -> check_int "width" 2 (Tree.width v)
    | Error msg -> Alcotest.failf "parse: %s" msg)

let test_conflict_reporting () =
  (* First/first and first/follow conflicts are both reported. *)
  let ff =
    Grammar.define ~start:"S"
      [ ("S", [ [ Grammar.t "a"; Grammar.t "b" ]; [ Grammar.t "a"; Grammar.t "c" ] ]) ]
  in
  check_int "first/first" 1 (List.length (Ll1.conflicts ff));
  let f_follow =
    (* S -> A a ; A -> eps | a : on 'a', A can derive eps (follow) or 'a'. *)
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "a" ] ]);
        ("A", [ []; [ Grammar.t "a" ] ]);
      ]
  in
  check "first/follow" true
    (List.exists (fun c -> c.Ll1.on <> None) (Ll1.conflicts f_follow));
  (* A nullable right-hand side whose FIRST and FOLLOW(lhs) share a
     terminal is one candidate in that cell, not a conflict with itself:
     a_ has a single production and is no decision; only b_ conflicts. *)
  let self =
    Result.get_ok
      (Costar_ebnf.Parse.grammar_of_string ~start:"s"
         "s : a_ 'a' ; a_ : b_ ; b_ : 'a' | ;")
  in
  match Ll1.conflicts self with
  | [ c ] ->
    check "only b_ conflicts" true (Grammar.nonterminal_name self c.Ll1.nt = "b_")
  | cs -> Alcotest.failf "expected one conflict, got %d" (List.length cs)

let suite =
  [
    Alcotest.test_case "LL(1) JSON builds" `Quick test_build_ll1_json;
    Alcotest.test_case "LL(1) JSON parses" `Quick test_parse_ll1_json;
    Alcotest.test_case "XML grammar is not LL(1) (E7)" `Quick test_xml_not_ll1;
    Alcotest.test_case "ANTLR JSON grammar is not LL(1)" `Quick
      test_antlr_json_not_ll1;
    Alcotest.test_case "LL(1) agrees with CoStar" `Quick
      test_ll1_agrees_with_costar;
    Alcotest.test_case "eof column" `Quick test_eof_column;
    Alcotest.test_case "conflict kinds" `Quick test_conflict_reporting;
  ]

let () = Alcotest.run "costar_ll1" [ ("ll1", suite) ]
