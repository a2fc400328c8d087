(* Grammar substrate tests: construction, analyses, left-recursion
   detection, derivation checker, trees. *)

open Costar_grammar
open Symbols

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let g1 =
  (* S -> A c | A d ; A -> a A | b *)
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let tm g name =
  match Grammar.terminal_of_name g name with
  | Some a -> a
  | None -> Alcotest.failf "unknown terminal %s" name

let test_sizes () =
  check_int "nonterminals" 2 (Grammar.num_nonterminals g1);
  check_int "terminals" 4 (Grammar.num_terminals g1);
  check_int "productions" 4 (Grammar.num_productions g1);
  check_int "max rhs len" 2 (Grammar.max_rhs_len g1)

let test_prods_of () =
  check_int "S alternatives" 2 (List.length (Grammar.prods_of g1 (nt g1 "S")));
  check_int "A alternatives" 2 (List.length (Grammar.prods_of g1 (nt g1 "A")));
  (* grammar order is preserved *)
  match Grammar.rhss_of g1 (nt g1 "S") with
  | [ [ NT _; T c ]; [ NT _; T d ] ] ->
    check "first alt is c" true (c = tm g1 "c");
    check "second alt is d" true (d = tm g1 "d")
  | _ -> Alcotest.fail "unexpected rhss for S"

let test_nullable_first_follow () =
  let a = Analysis.make g1 in
  check "S not nullable" false (Analysis.nullable a (nt g1 "S"));
  check "A not nullable" false (Analysis.nullable a (nt g1 "A"));
  let first_s = Analysis.first a (nt g1 "S") in
  check "first(S) = {a,b}" true
    (Bitset.elements first_s = List.sort compare [ tm g1 "a"; tm g1 "b" ]);
  let follow_a = Analysis.follow a (nt g1 "A") in
  check "follow(A) = {c,d}" true
    (Bitset.elements follow_a = List.sort compare [ tm g1 "c"; tm g1 "d" ]);
  check "end in follow(S)" true (Analysis.follow_end a (nt g1 "S"));
  check "end not in follow(A)" false (Analysis.follow_end a (nt g1 "A"))

let test_nullable_chain () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.n "B" ] ]);
        ("A", [ []; [ Grammar.t "a" ] ]);
        ("B", [ [ Grammar.n "A" ] ]);
      ]
  in
  let a = Analysis.make g in
  check "A nullable" true (Analysis.nullable a (nt g "A"));
  check "B nullable" true (Analysis.nullable a (nt g "B"));
  check "S nullable" true (Analysis.nullable a (nt g "S"));
  (* endable: B ends S; A ends via B, and also via S -> A B with B nullable *)
  check "B endable" true (Analysis.follow_end a (nt g "B"));
  check "A endable" true (Analysis.follow_end a (nt g "A"))

let test_callers () =
  let a = Analysis.make g1 in
  let callers_a = Analysis.callers a (nt g1 "A") in
  (* A occurs in S -> A c, S -> A d, A -> a A *)
  check_int "A occurrences" 3 (List.length callers_a)

let test_reachable_productive () =
  let g =
    Grammar.define ~allow_undefined:true ~start:"S"
      [
        ("S", [ [ Grammar.t "x" ] ]);
        ("Dead", [ [ Grammar.t "y" ] ]);
        ("Loop", [ [ Grammar.n "Loop" ] ]);
      ]
  in
  let a = Analysis.make g in
  check "S reachable" true (Analysis.reachable a (nt g "S"));
  check "Dead unreachable" false (Analysis.reachable a (nt g "Dead"));
  check "S productive" true (Analysis.productive a (nt g "S"));
  check "Loop non-productive" false (Analysis.productive a (nt g "Loop"))

let test_left_recursion_direct () =
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  match Left_recursion.check g with
  | Error [ x ] -> check "E is left-recursive" true (x = nt g "E")
  | _ -> Alcotest.fail "expected left recursion on E"

let test_left_recursion_indirect_nullable () =
  (* A -> B a ; B -> C ; C -> eps | A b : A -> B -> C -> A through a
     nullable prefix (C's alternatives start with A directly). *)
  let g =
    Grammar.define ~start:"A"
      [
        ("A", [ [ Grammar.n "B"; Grammar.t "a" ] ]);
        ("B", [ [ Grammar.n "C" ] ]);
        ("C", [ []; [ Grammar.n "A"; Grammar.t "b" ] ]);
      ]
  in
  match Left_recursion.check g with
  | Error xs -> check_int "three nts on the cycle" 3 (List.length xs)
  | Ok () -> Alcotest.fail "expected left recursion"

let test_not_left_recursive () =
  check "fig2 grammar is LR-free" true (Left_recursion.check g1 = Ok ());
  (* Right recursion is fine. *)
  let g =
    Grammar.define ~start:"L"
      [ ("L", [ [ Grammar.t "x"; Grammar.n "L" ]; [] ]) ]
  in
  check "right recursion ok" true (Left_recursion.check g = Ok ())

let test_hidden_left_recursion () =
  (* S -> N S x | y ; N -> eps : nullable N hides the S-S loop. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "N"; Grammar.n "S"; Grammar.t "x" ]; [ Grammar.t "y" ] ]);
        ("N", [ [] ]);
      ]
  in
  match Left_recursion.check g with
  | Error xs -> check "S on cycle" true (List.mem (nt g "S") xs)
  | Ok () -> Alcotest.fail "expected hidden left recursion to be caught"

let test_witness_kinds () =
  let witness g name =
    let anl = Analysis.make g in
    Left_recursion.witness g anl (nt g name)
  in
  let names g xs = List.map (Grammar.nonterminal_name g) xs in
  (* Direct: one edge back to itself. *)
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  (match witness g "E" with
  | Some (Left_recursion.Direct, cycle) ->
    Alcotest.(check (list string)) "direct cycle" [ "E"; "E" ] (names g cycle)
  | _ -> Alcotest.fail "expected a direct witness");
  (* Indirect: shortest cycle through B found by BFS. *)
  let g =
    Grammar.define ~start:"A"
      [
        ("A", [ [ Grammar.n "B"; Grammar.t "x" ]; [ Grammar.t "z" ] ]);
        ("B", [ [ Grammar.n "A"; Grammar.t "y" ] ]);
      ]
  in
  (match witness g "A" with
  | Some (Left_recursion.Indirect, cycle) ->
    Alcotest.(check (list string)) "indirect cycle" [ "A"; "B"; "A" ]
      (names g cycle)
  | _ -> Alcotest.fail "expected an indirect witness");
  (* Hidden: the recursive reference sits behind a nullable prefix. *)
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "N"; Grammar.n "S"; Grammar.t "x" ]; [ Grammar.t "y" ] ]
        );
        ("N", [ []; [ Grammar.t "w" ] ]);
      ]
  in
  (match witness g "S" with
  | Some (Left_recursion.Hidden, cycle) ->
    Alcotest.(check (list string)) "hidden cycle" [ "S"; "S" ] (names g cycle)
  | _ -> Alcotest.fail "expected a hidden witness");
  (* No witness for a non-left-recursive nonterminal. *)
  let g =
    Grammar.define ~start:"L"
      [ ("L", [ [ Grammar.t "x"; Grammar.n "L" ]; [] ]) ]
  in
  check "right recursion has no witness" true (witness g "L" = None)

let test_tree_ops () =
  let tok name = Grammar.token g1 name name in
  let v =
    Tree.Node
      ( nt g1 "S",
        [
          Tree.Node
            ( nt g1 "A",
              [ Tree.Leaf (tok "a"); Tree.Node (nt g1 "A", [ Tree.Leaf (tok "b") ]) ]
            );
          Tree.Leaf (tok "d");
        ] )
  in
  check_int "size" 6 (Tree.size v);
  check_int "depth" 4 (Tree.depth v);
  check_int "width" 3 (Tree.width v);
  let y = Tree.yield v in
  Alcotest.(check (list string))
    "yield" [ "a"; "b"; "d" ]
    (List.map Token.lexeme y);
  check "derives" true (Derivation.recognizes_start g1 y v);
  (* Perturbed tree must fail the checker. *)
  let bad = Tree.Node (nt g1 "S", [ Tree.Leaf (tok "d") ]) in
  check "bad tree rejected" false
    (Derivation.recognizes_start g1 [ tok "d" ] bad);
  (* DOT export mentions every label *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let dot = Tree.to_dot g1 v in
  check "dot has S" true (contains dot "\"S\"")

let test_define_errors () =
  check "duplicate rule rejected" true
    (try
       ignore
         (Grammar.define ~start:"S" [ ("S", [ [] ]); ("S", [ [ Grammar.t "x" ] ]) ]);
       false
     with Invalid_argument _ -> true);
  check "undefined nonterminal rejected" true
    (try
       ignore (Grammar.define ~start:"S" [ ("S", [ [ Grammar.n "T" ] ]) ]);
       false
     with Invalid_argument _ -> true);
  check "undefined start rejected" true
    (try
       ignore (Grammar.define ~start:"Z" [ ("S", [ [] ]) ]);
       false
     with Invalid_argument _ -> true)

let test_pool () =
  let p = Pool.create () in
  let a = Pool.intern p "alpha" in
  let b = Pool.intern p "beta" in
  check_int "alpha again" a (Pool.intern p "alpha");
  check "distinct ids" true (a <> b);
  Alcotest.(check string) "name roundtrip" "beta" (Pool.name p b);
  check_int "size" 2 (Pool.size p);
  check "find missing" true (Pool.find p "gamma" = None);
  check "out of range" true
    (try
       ignore (Pool.name p 99);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "prods_of order" `Quick test_prods_of;
    Alcotest.test_case "nullable/first/follow" `Quick test_nullable_first_follow;
    Alcotest.test_case "nullable chain + endable" `Quick test_nullable_chain;
    Alcotest.test_case "callers map" `Quick test_callers;
    Alcotest.test_case "reachable/productive" `Quick test_reachable_productive;
    Alcotest.test_case "direct left recursion" `Quick test_left_recursion_direct;
    Alcotest.test_case "indirect left recursion" `Quick
      test_left_recursion_indirect_nullable;
    Alcotest.test_case "no false positives" `Quick test_not_left_recursive;
    Alcotest.test_case "hidden left recursion" `Quick test_hidden_left_recursion;
    Alcotest.test_case "left-recursion witnesses" `Quick test_witness_kinds;
    Alcotest.test_case "tree operations" `Quick test_tree_ops;
    Alcotest.test_case "define errors" `Quick test_define_errors;
    Alcotest.test_case "interning pool" `Quick test_pool;
  ]

let () = Alcotest.run "costar_grammar" [ ("grammar", suite) ]
