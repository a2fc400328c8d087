(* Termination-measure tests (paper §4.2–4.3): the digit representation of
   stackScore, the lexicographic order, and the per-operation Lemmas 4.3
   and 4.4 checked on concrete machine traces. *)

open Costar_grammar
open Costar_grammar.Symbols
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let nt name =
  match Grammar.nonterminal_of_name fig2 name with
  | Some x -> x
  | None -> assert false

let test_score_representation () =
  (* base = 1 + maxRhsLen = 3; U = {S, A}; empty visited set: e0 = 2.
     A single frame holding one symbol scores 1 * 3^2: digits [0;0;1]. *)
  let s = Measure.stack_score fig2 ~visited:Int_set.empty [ [ NT (nt "S") ] ] in
  check_int "base" 3 s.Measure.base;
  Alcotest.(check (array int)) "digits" [| 0; 0; 1 |] s.Measure.digits

let test_score_visited_shifts_exponent () =
  (* With S visited, |U \ V| = 1: the same frame scores 1 * 3^1. *)
  let s =
    Measure.stack_score fig2
      ~visited:(Int_set.singleton (nt "S"))
      [ [ NT (nt "A") ] ]
  in
  Alcotest.(check (array int)) "digits" [| 0; 1 |] s.Measure.digits

let test_score_compare () =
  let score visited sufs = Measure.stack_score fig2 ~visited sufs in
  let empty = Int_set.empty in
  (* Two symbols in one frame > one symbol in the same position. *)
  check "2 syms > 1 sym" true
    (Measure.compare_score
       (score empty [ [ T 0; T 1 ] ])
       (score empty [ [ T 0 ] ])
    > 0);
  (* A deeper frame weighs more than a shallower one. *)
  check "lower frame heavier" true
    (Measure.compare_score
       (score empty [ []; [ T 0 ] ])
       (score empty [ [ T 0 ] ])
    > 0);
  check "equal scores" true
    (Measure.compare_score (score empty [ [ T 0 ] ]) (score empty [ [ T 0 ] ])
    = 0)

let test_score_different_bases_rejected () =
  let g2 = Grammar.define ~start:"S" [ ("S", [ [] ]) ] in
  let s1 = Measure.stack_score fig2 ~visited:Int_set.empty [ [] ] in
  let s2 = Measure.stack_score g2 ~visited:Int_set.empty [ [] ] in
  check "different bases rejected" true
    (try
       ignore (Measure.compare_score s1 s2);
       false
     with Invalid_argument _ -> true)

let collect_states g w =
  let p = Parser.make g in
  let states = ref [] in
  let result =
    Util.run p
      ~inspect:(fun ctx st -> states := Measure.meas g ctx st :: !states)
      w
  in
  (List.rev !states, result)

let test_fig2_trace_measures () =
  let w = Grammar.tokens fig2 [ "a"; "b"; "d" ] in
  let states, result = collect_states fig2 w in
  (match result with
  | Parser.Unique _ -> ()
  | _ -> Alcotest.fail "expected Unique");
  (* 10 machine states: s0..s9 as in Fig. 2 (one extra vs the figure's 8
     because our machine performs the final S-return and accept check as
     separate configurations). *)
  check_int "state count" 10 (List.length states);
  let measures = states in
  let rec strictly_decreasing = function
    | m1 :: (m2 :: _ as rest) ->
      Measure.compare m2 m1 < 0 && strictly_decreasing rest
    | _ -> true
  in
  check "strictly decreasing" true (strictly_decreasing measures);
  (* Token counts along the trace: consumed at s3, s5, s8. *)
  Alcotest.(check (list int))
    "token counts"
    [ 3; 3; 3; 2; 2; 1; 1; 1; 0; 0 ]
    (List.map (fun m -> m.Measure.tokens) measures)

let test_push_decreases_score () =
  (* Lemma 4.3: a push with constant token count strictly decreases the
     score component.  s0 -> s1 is the push of S. *)
  let w = Grammar.tokens fig2 [ "a"; "b"; "d" ] in
  let states, _ = collect_states fig2 w in
  match states with
  | m0 :: m1 :: _ ->
    check_int "tokens constant" m0.Measure.tokens m1.Measure.tokens;
    check "score decreases" true
      (Measure.compare_score m1.Measure.score m0.Measure.score < 0)
  | _ -> Alcotest.fail "trace too short"

let test_return_preserves_score_decreases_height () =
  (* Lemma 4.4: on a return the score does not increase and the height
     decreases.  In the Fig. 2 trace, s5 -> s6 is a return. *)
  let w = Grammar.tokens fig2 [ "a"; "b"; "d" ] in
  let states, _ = collect_states fig2 w in
  let m = states in
  let m5 = List.nth m 5 and m6 = List.nth m 6 in
  check_int "tokens constant" m5.Measure.tokens m6.Measure.tokens;
  check "score non-increasing" true
    (Measure.compare_score m6.Measure.score m5.Measure.score <= 0);
  check "height decreases" true (m6.Measure.height < m5.Measure.height)

let strictly_decreasing measures =
  let rec go = function
    | m1 :: (m2 :: _ as rest) -> Measure.compare m2 m1 < 0 && go rest
    | _ -> true
  in
  go measures

(* Lemmas 4.2–4.4 as a property over random grammars: along every
   [run_word] trace the measure strictly decreases, a consuming step
   resets the score ordering via the token component, and the trace is
   finite (the machine returned at all). *)
let prop_cursor_measure_decreases =
  QCheck.Test.make ~count:300
    ~name:"measure strictly decreases along run_word traces"
    Util.arb_grammar_word (fun (g, names) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () ->
        let w = Grammar.tokens g names in
        let states, _ = collect_states g w in
        let measures = states in
        strictly_decreasing measures)

let test_epsilon_grammar_base_clamped () =
  (* All-epsilon grammars have maxRhsLen = 0; the base is clamped to 2 so
     the bottom frame's digit stays valid. *)
  let g = Grammar.define ~start:"S" [ ("S", [ [] ]) ] in
  let s =
    Measure.stack_score g ~visited:Int_set.empty [ [ NT (Grammar.start g) ] ]
  in
  check_int "clamped base" 2 s.Measure.base

let suite =
  [
    Alcotest.test_case "score digit representation" `Quick
      test_score_representation;
    Alcotest.test_case "visited shifts exponents" `Quick
      test_score_visited_shifts_exponent;
    Alcotest.test_case "score comparison" `Quick test_score_compare;
    Alcotest.test_case "cross-grammar compare rejected" `Quick
      test_score_different_bases_rejected;
    Alcotest.test_case "fig2 trace measures" `Quick test_fig2_trace_measures;
    Alcotest.test_case "push decreases score (Lemma 4.3)" `Quick
      test_push_decreases_score;
    Alcotest.test_case "return keeps score, shrinks stack (Lemma 4.4)" `Quick
      test_return_preserves_score_decreases_height;
    Alcotest.test_case "epsilon grammar base clamp" `Quick
      test_epsilon_grammar_base_clamped;
  ]

let cursor_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cursor_measure_decreases ]

let () =
  Alcotest.run "costar_measure"
    [ ("measure", suite); ("measure-cursor", cursor_props) ]
