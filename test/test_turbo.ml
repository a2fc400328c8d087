(* Turbo (the ANTLR stand-in) tests: unit cases plus differential testing
   against the verified core parser — results must be bit-identical. *)

open Costar_grammar
open Costar_langs
module P = Costar_core.Parser

let check = Alcotest.(check bool)

let same_result g r1 r2 =
  Util.same_result r1 r2
  ||
  (Fmt.epr "core: %a@.turbo: %a@." (P.pp_result g) r1 (P.pp_result g) r2;
   false)

let test_langs_agree () =
  List.iter
    (fun lang ->
      let g = Lang.grammar lang in
      let p = P.make g in
      let turbo = Costar_turbo.Turbo.create g in
      List.iter
        (fun (seed, size) ->
          let src = Lang.generate lang ~seed ~size in
          let toks = Lang.tokenize_exn lang src in
          check
            (Printf.sprintf "%s seed %d" lang.Lang.name seed)
            true
            (same_result g (Util.run p toks) (Costar_turbo.Turbo.parse turbo toks)))
        [ (21, 10); (22, 50); (23, 150) ])
    Registry.all

let test_rejects_agree () =
  let lang = Json.lang in
  let g = Lang.grammar lang in
  let turbo = Costar_turbo.Turbo.create g in
  List.iter
    (fun src ->
      match lang.Lang.tokenize src with
      | Error _ -> ()
      | Ok toks ->
        check src true
          (same_result g (P.parse g toks) (Costar_turbo.Turbo.parse turbo toks)))
    [ {|{"a" 1}|}; {|[1,]|}; {|[}|}; {|{"a":1}|}; "true"; "[[[]]]"; "," ]

let test_ambiguity_detected () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  let turbo = Costar_turbo.Turbo.create g in
  match Costar_turbo.Turbo.parse turbo (Grammar.tokens g [ "a" ]) with
  | P.Ambig _ -> ()
  | r -> Alcotest.failf "expected Ambig, got %a" (P.pp_result g) r

let test_left_recursion_detected () =
  let g =
    Grammar.define ~start:"E"
      [ ("E", [ [ Grammar.n "E"; Grammar.t "+" ]; [ Grammar.t "n" ] ]) ]
  in
  let turbo = Costar_turbo.Turbo.create g in
  match Costar_turbo.Turbo.parse turbo (Grammar.tokens g [ "n"; "+" ]) with
  | P.Error (Costar_core.Types.Left_recursive _) -> ()
  | r -> Alcotest.failf "expected error, got %a" (P.pp_result g) r

let test_cache_warm_and_reset () =
  let lang = Minipy.lang in
  let g = Lang.grammar lang in
  let turbo = Costar_turbo.Turbo.create g in
  let toks = Lang.tokenize_exn lang (Lang.generate lang ~seed:7 ~size:100) in
  let r1 = Costar_turbo.Turbo.parse turbo toks in
  let warmed = Costar_turbo.Turbo.cache_states turbo in
  check "cache grew" true (warmed > 0);
  let r2 = Costar_turbo.Turbo.parse turbo toks in
  check "warm result identical" true (same_result g r1 r2);
  check "no further growth on same input" true
    (Costar_turbo.Turbo.cache_states turbo = warmed);
  Costar_turbo.Turbo.reset_cache turbo;
  check "reset empties cache" true (Costar_turbo.Turbo.cache_states turbo = 0);
  let r3 = Costar_turbo.Turbo.parse turbo toks in
  check "cold result identical" true (same_result g r1 r3)

let prop_differential =
  QCheck.Test.make ~count:800 ~name:"turbo = core on random grammars"
    Util.arb_grammar_word (fun (g, w) ->
      let word = Grammar.tokens g w in
      match Left_recursion.check g with
      | Error _ -> true (* error discovery points may differ under LR *)
      | Ok () ->
        let r_core = P.parse g word in
        let r_turbo = Costar_turbo.Turbo.parse (Costar_turbo.Turbo.create g) word in
        same_result g r_core r_turbo)

let suite =
  [
    Alcotest.test_case "agrees on all language corpora" `Quick test_langs_agree;
    Alcotest.test_case "agrees on rejects" `Quick test_rejects_agree;
    Alcotest.test_case "detects ambiguity" `Quick test_ambiguity_detected;
    Alcotest.test_case "detects left recursion" `Quick test_left_recursion_detected;
    Alcotest.test_case "cache warm/reset" `Quick test_cache_warm_and_reset;
    QCheck_alcotest.to_alcotest prop_differential;
  ]

let () = Alcotest.run "costar_turbo" [ ("turbo", suite) ]
