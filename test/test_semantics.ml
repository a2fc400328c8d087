(* Semantic-action layer tests (paper §8 extension). *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Sum grammar: S -> N | N '+' S *)
let g =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "N" ]; [ Grammar.n "N"; Grammar.t "+"; Grammar.n "S" ] ]);
      ("N", [ [ Grammar.t "num" ] ]);
    ]

(* Tokens carry their value in the lexeme. *)
let tok v = Grammar.token g "num" (string_of_int v)
let plus = Grammar.token g "+" "+"

let sum_actions =
  {
    Semantics.on_token =
      (fun t -> if Token.lexeme t = "+" then 0 else int_of_string (Token.lexeme t));
    on_production = (fun _ kids -> List.fold_left ( + ) 0 kids);
  }

let test_sum () =
  let p = Parser.make g in
  (match Semantics.run p sum_actions [ tok 1; plus; tok 2; plus; tok 39 ] with
  | Semantics.Value v -> check_int "1+2+39" 42 v
  | _ -> Alcotest.fail "expected a value");
  match Semantics.run p sum_actions [ tok 7 ] with
  | Semantics.Value v -> check_int "singleton" 7 v
  | _ -> Alcotest.fail "expected a value"

let test_reject_propagates () =
  let p = Parser.make g in
  match Semantics.run p sum_actions [ tok 1; plus ] with
  | Semantics.Rejected _ -> ()
  | _ -> Alcotest.fail "expected Rejected"

let test_ambiguous_value () =
  let ag =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  let p = Parser.make ag in
  let actions =
    {
      Semantics.on_token = (fun _ -> 1);
      on_production = (fun _ kids -> List.fold_left ( + ) 0 kids);
    }
  in
  match Semantics.run p actions (Grammar.tokens ag [ "a" ]) with
  | Semantics.Ambiguous_value 1 -> ()
  | Semantics.Ambiguous_value v -> Alcotest.failf "wrong value %d" v
  | _ -> Alcotest.fail "expected Ambiguous_value"

let test_production_identity () =
  (* Actions can dispatch on the production that built the node. *)
  let p = Parser.make g in
  let count_plus_nodes =
    {
      Semantics.on_token = (fun _ -> 0);
      on_production =
        (fun prod kids ->
          let here = if List.length prod.Grammar.rhs = 3 then 1 else 0 in
          here + List.fold_left ( + ) 0 kids);
    }
  in
  match
    Semantics.run p count_plus_nodes [ tok 1; plus; tok 2; plus; tok 3 ]
  with
  | Semantics.Value v -> check_int "two + nodes" 2 v
  | _ -> Alcotest.fail "expected a value"

let test_eval_malformed_tree () =
  (* A hand-built tree that matches no production is reported. *)
  let x =
    match Grammar.nonterminal_of_name g "S" with Some x -> x | None -> assert false
  in
  let bad = Tree.node x [ Tree.leaf plus ] in
  match Semantics.eval g sum_actions bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an evaluation error"

let test_eval_agrees_with_manual_fold () =
  (* eval over the parser's tree = manual recursion over the same tree. *)
  let p = Parser.make g in
  let w = [ tok 5; plus; tok 6 ] in
  match Util.run p w with
  | Parser.Unique v ->
    let manual =
      let rec go v =
        match Tree.view v with
        | Tree.Leaf t -> sum_actions.Semantics.on_token t
        | Tree.Node (_, kids) -> List.fold_left (fun a k -> a + go k) 0 kids
        | Tree.Error _ -> Alcotest.fail "plain engine produced an error node"
      in
      go v
    in
    (match Semantics.eval g sum_actions v with
    | Ok value -> check_int "agrees" manual value
    | Error msg -> Alcotest.fail msg)
  | _ -> Alcotest.fail "expected Unique"

let test_polymorphic_actions () =
  (* The same parse drives differently-typed analyses. *)
  let p = Parser.make g in
  let as_string =
    {
      Semantics.on_token = (fun t -> Token.lexeme t);
      on_production = (fun _ kids -> "(" ^ String.concat " " kids ^ ")");
    }
  in
  match Semantics.run p as_string [ tok 1; plus; tok 2 ] with
  | Semantics.Value s -> check "renders" true (s = "((1) + ((2)))");
  | _ -> Alcotest.fail "expected a value"

let suite =
  [
    Alcotest.test_case "sum evaluation" `Quick test_sum;
    Alcotest.test_case "reject propagates" `Quick test_reject_propagates;
    Alcotest.test_case "ambiguous value flagged" `Quick test_ambiguous_value;
    Alcotest.test_case "production identity" `Quick test_production_identity;
    Alcotest.test_case "malformed tree" `Quick test_eval_malformed_tree;
    Alcotest.test_case "eval = manual fold" `Quick
      test_eval_agrees_with_manual_fold;
    Alcotest.test_case "polymorphic actions" `Quick test_polymorphic_actions;
  ]

let () = Alcotest.run "costar_semantics" [ ("semantics", suite) ]
