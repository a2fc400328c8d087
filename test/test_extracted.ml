(* Differential tests between the interned-integer core parser and the
   independent extraction-style implementation: identical verdicts and
   identical trees, on unit cases and random grammars. *)

open Costar_grammar
module P = Costar_core.Parser
module E = Costar_extracted.Extracted

let check = Alcotest.(check bool)

(* The fuzz gate's own comparator: verdicts, and trees under one
   core-to-extracted conversion. *)
let same g core extracted =
  Costar_cover.Diff.agree_extracted g core extracted = Ok ()

let run_both g w =
  let word = Grammar.tokens g w in
  let core = P.parse g word in
  let extracted = E.parse_tokens (E.of_grammar g) g word in
  (core, extracted)

let test_unit_cases () =
  let fig2 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  List.iter
    (fun w ->
      let core, ex = run_both fig2 w in
      check (String.concat " " w) true (same fig2 core ex))
    [ [ "a"; "b"; "d" ]; [ "b"; "c" ]; [ "a"; "a" ]; []; [ "a"; "b"; "c"; "c" ] ]

let test_langs () =
  let open Costar_langs in
  List.iter
    (fun (lang : Lang.t) ->
      let g = Lang.grammar lang in
      let eg = E.of_grammar g in
      let src = Lang.generate lang ~seed:31 ~size:25 in
      let toks = Lang.tokenize_exn lang src in
      check lang.Lang.name true
        (same g (P.parse g toks) (E.parse_tokens eg g toks)))
    [ Json.lang; Xml.lang; Dot.lang ]

(* One cache carried across a corpus: every parse still agrees with the
   core, whatever the earlier inputs left in the cache. *)
let test_shared_cache () =
  let open Costar_langs in
  List.iter
    (fun (lang : Lang.t) ->
      let g = Lang.grammar lang in
      let eg = E.of_grammar g in
      let cache = E.new_cache () in
      for seed = 1 to 6 do
        let src = Lang.generate lang ~seed ~size:(10 + (5 * seed)) in
        let toks = Lang.tokenize_exn lang src in
        let truncated = List.filteri (fun i _ -> i < List.length toks / 2) toks in
        List.iter
          (fun toks ->
            check
              (Printf.sprintf "%s seed %d" lang.Lang.name seed)
              true
              (same g (P.parse g toks) (E.parse_tokens ~cache eg g toks)))
          [ toks; truncated ]
      done)
    [ Json.lang; Xml.lang; Dot.lang ]

let prop_differential =
  QCheck.Test.make ~count:600 ~name:"extracted = core on random grammars"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () ->
        let core, ex = run_both g w in
        same g core ex)

let suite =
  [
    Alcotest.test_case "unit cases" `Quick test_unit_cases;
    Alcotest.test_case "benchmark languages" `Quick test_langs;
    Alcotest.test_case "one cache across a corpus" `Quick test_shared_cache;
    QCheck_alcotest.to_alcotest prop_differential;
  ]

let () = Alcotest.run "costar_extracted" [ ("extracted", suite) ]
