(* Differential tests between the interned-integer core parser and the
   independent extraction-style implementation: identical verdicts and
   identical trees, on unit cases and random grammars. *)

open Costar_grammar
module P = Costar_core.Parser
module E = Costar_extracted.Extracted

let check = Alcotest.(check bool)

(* Convert a core tree to the extracted representation for comparison. *)
let rec convert g v =
  match Tree.view v with
  | Tree.Leaf tok ->
    E.Leaf (Grammar.terminal_name g tok.Token.term, tok.Token.lexeme)
  | Tree.Node (x, kids) ->
    E.Node (Grammar.nonterminal_name g x, List.map (convert g) kids)
  | Tree.Error _ -> Alcotest.fail "plain engine produced an error node"

let same g core extracted =
  match core, extracted with
  | P.Unique v1, E.Unique v2 | P.Ambig v1, E.Ambig v2 -> convert g v1 = v2
  | P.Reject _, E.Reject -> true
  | P.Error _, E.Error _ -> true
  | _ -> false

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
    QCheck_alcotest.to_alcotest prop_differential;
  ]

let () = Alcotest.run "costar_extracted" [ ("extracted", suite) ]
