(* Prediction-mechanism unit tests: SLL closure/move, the stable-return
   (caller-fork) simulation, end-of-input accepting configurations, the
   DFA cache, LL exactness, and the adaptive failover. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let prod_ix g lhs k =
  (* k-th alternative (grammar order) of lhs *)
  List.nth (Grammar.prods_of g (nt g lhs)) k

let word g w = Word.of_tokens (Grammar.tokens g w)

let sll_predict g x w =
  let anl = Analysis.make g in
  fst (Sll.predict g anl (Cache.create anl) (nt g x) (word g w) 0)

let ll_predict g x conts w =
  let anl = Analysis.make g in
  fst (Ll.predict g anl (nt g x) conts (word g w) 0)

(* Fig. 2 grammar *)
let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let test_sll_fig2 () =
  (* Deciding S requires scanning past the A to see 'c' or 'd'. *)
  (match sll_predict fig2 "S" [ "a"; "b"; "d" ] with
  | Types.Unique_pred ix -> check_int "S -> A d" (prod_ix fig2 "S" 1) ix
  | _ -> Alcotest.fail "expected Unique");
  (match sll_predict fig2 "S" [ "b"; "c" ] with
  | Types.Unique_pred ix -> check_int "S -> A c" (prod_ix fig2 "S" 0) ix
  | _ -> Alcotest.fail "expected Unique");
  match sll_predict fig2 "S" [ "c" ] with
  | Types.Reject_pred -> ()
  | _ -> Alcotest.fail "expected Reject"

let test_sll_two_token_lookahead () =
  (* S -> A 'x' | A 'y' ; A -> 'a': the decision needs the token after A. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "x" ]; [ Grammar.n "A"; Grammar.t "y" ] ]);
        ("A", [ [ Grammar.t "a" ] ]);
      ]
  in
  (match sll_predict g "S" [ "a"; "x" ] with
  | Types.Unique_pred ix -> check_int "first" (prod_ix g "S" 0) ix
  | _ -> Alcotest.fail "expected Unique");
  match sll_predict g "S" [ "a"; "y" ] with
  | Types.Unique_pred ix -> check_int "second" (prod_ix g "S" 1) ix
  | _ -> Alcotest.fail "expected Unique"

let test_sll_accepting_at_eof () =
  (* A -> 'a' | 'a' 'b' inside S -> A: at <eof> after 'a', only the short
     alternative is in accepting position. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A" ] ]);
        ("A", [ [ Grammar.t "a" ]; [ Grammar.t "a"; Grammar.t "b" ] ]);
      ]
  in
  (match sll_predict g "A" [ "a" ] with
  | Types.Unique_pred ix -> check_int "short alt" (prod_ix g "A" 0) ix
  | _ -> Alcotest.fail "expected Unique");
  match sll_predict g "A" [ "a"; "b" ] with
  | Types.Unique_pred ix -> check_int "long alt" (prod_ix g "A" 1) ix
  | _ -> Alcotest.fail "expected Unique"

let test_sll_follow_fork () =
  (* The classic case needing the stable-return simulation: deciding the
     list-continuation nonterminal requires knowing what may follow the
     list in its callers. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.t "["; Grammar.n "L"; Grammar.t "]" ] ]);
        ("L", [ [ Grammar.t "x" ]; [ Grammar.t "x"; Grammar.t ","; Grammar.n "L" ] ]);
      ]
  in
  (* After 'x', ']' must select the first alternative, ',' the second. *)
  (match sll_predict g "L" [ "x"; "]" ] with
  | Types.Unique_pred ix -> check_int "end of list" (prod_ix g "L" 0) ix
  | _ -> Alcotest.fail "expected Unique");
  match sll_predict g "L" [ "x"; ","; "x"; "]" ] with
  | Types.Unique_pred ix -> check_int "continue list" (prod_ix g "L" 1) ix
  | _ -> Alcotest.fail "expected Unique"

let test_sll_ambig_triggers_failover () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  (match sll_predict g "S" [ "a" ] with
  | Types.Ambig_pred _ -> ()
  | _ -> Alcotest.fail "expected SLL Ambig");
  (* The exact LL check from the true start context confirms ambiguity. *)
  match ll_predict g "S" [ [] ] [ "a" ] with
  | Types.Ambig_pred ix -> check_int "first alternative" (prod_ix g "S" 0) ix
  | _ -> Alcotest.fail "expected LL Ambig"

let test_ll_context_sensitivity () =
  (* LL prediction sees the actual continuation: the same decision gives
     different answers under different stack continuations. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "x" ] ]);
        ("A", [ [ Grammar.t "a" ]; [ Grammar.t "a"; Grammar.t "x" ] ]);
      ]
  in
  let term name =
    match Grammar.terminal_of_name g name with
    | Some a -> a
    | None -> Alcotest.failf "unknown terminal %s" name
  in
  (* Input "a x": with the real continuation ['x'], only A -> 'a' lets the
     whole word parse. *)
  (match ll_predict g "A" [ [ Symbols.T (term "x") ] ] [ "a"; "x" ] with
  | Types.Unique_pred ix -> check_int "short" (prod_ix g "A" 0) ix
  | _ -> Alcotest.fail "expected Unique (short)");
  (* With an empty continuation, only A -> 'a' 'x' consumes everything. *)
  match ll_predict g "A" [ [] ] [ "a"; "x" ] with
  | Types.Unique_pred ix -> check_int "long" (prod_ix g "A" 1) ix
  | _ -> Alcotest.fail "expected Unique (long)"

let test_left_recursion_in_closure () =
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  match sll_predict g "E" [ "n" ] with
  | Types.Error_pred (Types.Left_recursive x) ->
    check_int "names E" (nt g "E") x
  | _ -> Alcotest.fail "expected Left_recursive"

let test_no_spurious_left_recursion () =
  (* S -> B B 'd' ; B -> eps | 'c' : expanding B twice along one closure
     path is legal once the first B has completed (visited snapshots must
     be restored on pop). *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "B"; Grammar.n "B"; Grammar.t "d" ] ]);
        ("B", [ []; [ Grammar.t "c" ] ]);
      ]
  in
  (match sll_predict g "B" [ "d" ] with
  | Types.Error_pred _ -> Alcotest.fail "spurious left-recursion report"
  | _ -> ());
  match Parser.parse g (Grammar.tokens g [ "d" ]) with
  | Parser.Unique _ -> ()
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r

let test_cache_growth_and_reuse () =
  let anl = Analysis.make fig2 in
  let x = nt fig2 "S" in
  let w = word fig2 [ "a"; "a"; "b"; "d" ] in
  let cache = Cache.create anl in
  ignore (Sll.predict fig2 anl cache x w 0);
  let states1 = Cache.num_states cache in
  let trans1 = Cache.num_transitions cache in
  check "states interned" true (states1 > 0);
  check "transitions cached" true (trans1 > 0);
  (* Re-predicting over the same prefix adds nothing. *)
  ignore (Sll.predict fig2 anl cache x w 0);
  check_int "no new states" states1 (Cache.num_states cache);
  check_int "no new transitions" trans1 (Cache.num_transitions cache)

let test_prepare () =
  let anl = Analysis.make fig2 in
  let x = nt fig2 "S" in
  let cache = Cache.create anl in
  Sll.prepare fig2 anl cache x;
  check "init present" true (Cache.find_init cache x <> None);
  check_int "no transitions" 0 (Cache.num_transitions cache);
  (* Results are identical with or without preparation. *)
  let w = word fig2 [ "b"; "d" ] in
  let r1 = Sll.predict fig2 anl (Cache.create anl) x w 0 in
  let r2 = Sll.predict fig2 anl cache x w 0 in
  check "prepared = unprepared" true (r1 = r2)

let test_closure_cached_consistency () =
  (* The memoized closure agrees with the direct closure. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"closure_cached = closure"
       Util.arb_grammar_word (fun (g, _) ->
         let anl = Analysis.make g in
         List.for_all
           (fun x ->
             let configs = Sll.init_configs g anl x in
             let direct = Sll.closure g anl configs in
             let cached = Sll.closure_cached g anl (Cache.create anl) configs in
             match direct, cached with
             | Ok (l1, f1), Ok (l2, f2) ->
               f1 = f2
               && List.length l1 = List.length l2
               && List.for_all2 (fun a b -> Config.compare_sll a b = 0) l1 l2
             | Error _, Error _ -> true
             | _ -> false)
           (List.init (Grammar.num_nonterminals g) Fun.id)))

let test_single_production_shortcut () =
  (* A single-alternative nonterminal is predicted without consulting the
     cache at all. *)
  let g =
    Grammar.define ~start:"S" [ ("S", [ [ Grammar.t "a"; Grammar.t "b" ] ]) ]
  in
  let anl = Analysis.make g in
  let cache = Cache.create anl in
  let pred, _ =
    Predict.adaptive_predict g anl cache (nt g "S") ~conts:(fun l () -> l) [ [] ] ()
      (word g [ "a"; "b" ]) 0
  in
  (match pred with
  | Types.Unique_pred 0 -> ()
  | _ -> Alcotest.fail "expected Unique 0");
  check_int "cache untouched" 0 (Cache.num_states cache)

let test_no_productions_rejects () =
  let g =
    Grammar.define ~allow_undefined:true ~start:"S"
      [ ("S", [ [ Grammar.n "Ghost" ] ]) ]
  in
  match Parser.parse g (Grammar.tokens g []) with
  | Parser.Reject _ -> ()
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result g) r

let suite =
  [
    Alcotest.test_case "SLL on fig2" `Quick test_sll_fig2;
    Alcotest.test_case "SLL two-token lookahead" `Quick
      test_sll_two_token_lookahead;
    Alcotest.test_case "SLL accepting at eof" `Quick test_sll_accepting_at_eof;
    Alcotest.test_case "SLL stable-return fork" `Quick test_sll_follow_fork;
    Alcotest.test_case "SLL ambig triggers LL failover" `Quick
      test_sll_ambig_triggers_failover;
    Alcotest.test_case "LL context sensitivity" `Quick
      test_ll_context_sensitivity;
    Alcotest.test_case "left recursion in closure" `Quick
      test_left_recursion_in_closure;
    Alcotest.test_case "no spurious left recursion" `Quick
      test_no_spurious_left_recursion;
    Alcotest.test_case "cache growth and reuse" `Quick
      test_cache_growth_and_reuse;
    Alcotest.test_case "prepare" `Quick test_prepare;
    Alcotest.test_case "closure_cached consistency" `Quick
      test_closure_cached_consistency;
    Alcotest.test_case "single-production shortcut" `Quick
      test_single_production_shortcut;
    Alcotest.test_case "no productions rejects" `Quick
      test_no_productions_rejects;
  ]

let () = Alcotest.run "costar_predict" [ ("predict", suite) ]
