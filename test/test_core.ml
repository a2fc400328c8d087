(* Core parser tests: the paper's running examples (Fig. 2 and Fig. 6),
   basic accept/reject behaviour, ambiguity labelling, left recursion. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Fig. 2: S -> A c | A d ; A -> a A | b.  Input "abd". *)
let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

(* Fig. 6: S -> X | Y ; X -> a ; Y -> a.  Input "a" is ambiguous. *)
let fig6 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
      ("X", [ [ Grammar.t "a" ] ]);
      ("Y", [ [ Grammar.t "a" ] ]);
    ]

let parse_names g names = Parser.parse g (Grammar.tokens g names)

let test_fig2_unique () =
  match parse_names fig2 [ "a"; "b"; "d" ] with
  | Parser.Unique v ->
    check_str "tree" "(S (A 'a' (A 'b')) 'd')" (Tree.to_string fig2 v);
    check "sound" true
      (Derivation.recognizes_start fig2 (Grammar.tokens fig2 [ "a"; "b"; "d" ]) v)
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result fig2) r

let test_fig2_reject () =
  (match parse_names fig2 [ "a"; "b" ] with
  | Parser.Reject _ -> ()
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result fig2) r);
  (match parse_names fig2 [ "b"; "d"; "d" ] with
  | Parser.Reject _ -> ()
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result fig2) r);
  match parse_names fig2 [] with
  | Parser.Reject _ -> ()
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result fig2) r

let test_fig2_longer () =
  (* a^n b c parses uniquely for various n *)
  for n = 0 to 20 do
    let w = List.init n (fun _ -> "a") @ [ "b"; "c" ] in
    match parse_names fig2 w with
    | Parser.Unique v ->
      check "sound" true
        (Derivation.recognizes_start fig2 (Grammar.tokens fig2 w) v)
    | r -> Alcotest.failf "n=%d: expected Unique, got %a" n (Parser.pp_result fig2) r
  done

let test_fig6_ambig () =
  match parse_names fig6 [ "a" ] with
  | Parser.Ambig v ->
    check "sound" true
      (Derivation.recognizes_start fig6 (Grammar.tokens fig6 [ "a" ]) v)
  | r -> Alcotest.failf "expected Ambig, got %a" (Parser.pp_result fig6) r

let test_left_recursion_error () =
  (* E -> E '+' 'n' | 'n' is left-recursive: the parser must report it
     as an error rather than diverge. *)
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+"; Grammar.t "n" ]; [ Grammar.t "n" ] ]) ]
  in
  match parse_names g [ "n"; "+"; "n" ] with
  | Parser.Error (Types.Left_recursive x) ->
    check_str "nonterminal" "E" (Grammar.nonterminal_name g x)
  | r -> Alcotest.failf "expected Left_recursive, got %a" (Parser.pp_result g) r

let test_empty_word_nullable () =
  let g =
    Grammar.define ~start:"S" [ ("S", [ []; [ Grammar.t "x"; Grammar.n "S" ] ]) ]
  in
  (match parse_names g [] with
  | Parser.Unique v when (match Tree.view v with Tree.Node (_, []) -> true | _ -> false) -> ()
  | r -> Alcotest.failf "expected Unique (S), got %a" (Parser.pp_result g) r);
  match parse_names g [ "x"; "x"; "x" ] with
  | Parser.Unique v ->
    check "sound" true
      (Derivation.recognizes_start g (Grammar.tokens g [ "x"; "x"; "x" ]) v)
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r

let suite =
  [
    Alcotest.test_case "fig2 unique parse" `Quick test_fig2_unique;
    Alcotest.test_case "fig2 rejections" `Quick test_fig2_reject;
    Alcotest.test_case "fig2 longer inputs" `Quick test_fig2_longer;
    Alcotest.test_case "fig6 ambiguity" `Quick test_fig6_ambig;
    Alcotest.test_case "left recursion error" `Quick test_left_recursion_error;
    Alcotest.test_case "nullable start symbol" `Quick test_empty_word_nullable;
  ]

let () = Alcotest.run "costar_core" [ ("parser", suite) ]
