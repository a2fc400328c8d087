(* GSS prediction engine tests: verdict-identical to the list-stack SLL
   engine (differential, on unit cases, random grammars, and the benchmark
   corpora), with the structure sharing actually observable. *)

open Costar_grammar
open Costar_core
module Gss = Costar_gss.Gss

let check = Alcotest.(check bool)

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let same_verdict v1 v2 =
  match v1, v2 with
  | Types.Unique_pred i, Types.Unique_pred j -> i = j
  | Types.Ambig_pred i, Types.Ambig_pred j -> i = j
  | Types.Reject_pred, Types.Reject_pred -> true
  | Types.Error_pred _, Types.Error_pred _ -> true
  | _ -> false

(* The core SLL verdict on a token list, from a fresh cache. *)
let sll_predict g anl x toks =
  fst (Sll.predict g anl (Cache.create anl) x (Word.of_tokens toks) 0)

let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let test_fig2 () =
  let e = Gss.create fig2 in
  let anl = Analysis.make fig2 in
  List.iter
    (fun w ->
      let toks = Grammar.tokens fig2 w in
      List.iter
        (fun name ->
          let x = nt fig2 name in
          let core = sll_predict fig2 anl x toks in
          let gss = Gss.predict e x toks in
          check
            (Printf.sprintf "%s on %s" name (String.concat " " w))
            true (same_verdict core gss))
        [ "S"; "A" ])
    [ [ "a"; "b"; "d" ]; [ "b"; "c" ]; [ "a"; "a" ]; []; [ "c" ] ]

let test_sharing_observable () =
  (* The paper's XML element rule: the two alternatives share the whole
     attribute-scanning region; the GSS engine must keep the configuration
     sets small (one per alternative after merging). *)
  let g =
    match
      Costar_ebnf.Parse.grammar_of_string ~start:"element"
        {|
          element : '<' NAME attr* '>' | '<' NAME attr* '/>' ;
          attr    : NAME '=' STRING ;
        |}
    with
    | Ok g -> g
    | Error msg -> Alcotest.fail msg
  in
  let e = Gss.create g in
  let w =
    Grammar.tokens g
      ([ "<"; "NAME" ]
      @ List.concat (List.init 20 (fun _ -> [ "NAME"; "="; "STRING" ]))
      @ [ "/>" ])
  in
  (match Gss.predict e (nt g "element") w with
  | Types.Unique_pred 1 -> ()
  | v ->
    Alcotest.failf "expected Unique 1, got %s"
      (match v with
      | Types.Unique_pred i -> Printf.sprintf "Unique %d" i
      | Types.Ambig_pred _ -> "Ambig"
      | Types.Reject_pred -> "Reject"
      | Types.Error_pred _ -> "Error"));
  let _, _, peak = Gss.stats e in
  (* Without merging, configurations multiply with contexts; with the GSS
     they stay bounded by a small constant. *)
  check "peak configurations stay small" true (peak <= 8)

let test_cache_reuse () =
  let e = Gss.create fig2 in
  let toks = Grammar.tokens fig2 [ "a"; "b"; "d" ] in
  let v1 = Gss.predict e (nt fig2 "S") toks in
  let _, states1, _ = Gss.stats e in
  let v2 = Gss.predict e (nt fig2 "S") toks in
  let _, states2, _ = Gss.stats e in
  check "same verdict" true (same_verdict v1 v2);
  check "no new states on re-predict" true (states1 = states2);
  Gss.reset e;
  let _, states3, _ = Gss.stats e in
  check "reset clears" true (states3 = 0);
  check "verdict stable after reset" true
    (same_verdict v1 (Gss.predict e (nt fig2 "S") toks))

let prop_differential =
  QCheck.Test.make ~count:600 ~name:"GSS = list-stack SLL on random grammars"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () ->
        let toks = Grammar.tokens g w in
        let anl = Analysis.make g in
        let e = Gss.create g in
        List.for_all
          (fun x ->
            let core = sll_predict g anl x toks in
            let gss = Gss.predict e x toks in
            same_verdict core gss)
          (List.init (Grammar.num_nonterminals g) Fun.id))

let test_langs_agree () =
  List.iter
    (fun (lang : Costar_langs.Lang.t) ->
      let g = Costar_langs.Lang.grammar lang in
      let anl = Analysis.make g in
      let e = Gss.create g in
      let src = Costar_langs.Lang.generate lang ~seed:51 ~size:40 in
      let toks = Costar_langs.Lang.tokenize_exn lang src in
      (* Compare predictions for every multi-alternative nonterminal at
         several suffixes of the corpus token stream. *)
      let suffixes =
        let arr = Array.of_list toks in
        let n = Array.length arr in
        List.filter_map
          (fun k ->
            if k <= n then
              Some (Array.to_list (Array.sub arr k (min 30 (n - k))))
            else None)
          [ 0; n / 3; n / 2; n - 1 ]
      in
      List.iter
        (fun x ->
          if List.length (Grammar.prods_of g x) > 1 then
            List.iter
              (fun suffix ->
                let core = sll_predict g anl x suffix in
                let gss = Gss.predict e x suffix in
                check
                  (Printf.sprintf "%s/%s" lang.Costar_langs.Lang.name
                     (Grammar.nonterminal_name g x))
                  true (same_verdict core gss))
              suffixes)
        (List.init (Grammar.num_nonterminals g) Fun.id))
    [ Costar_langs.Json.lang; Costar_langs.Xml.lang; Costar_langs.Dot.lang ]

let suite =
  [
    Alcotest.test_case "fig2 verdicts" `Quick test_fig2;
    Alcotest.test_case "sharing bounds configs" `Quick test_sharing_observable;
    Alcotest.test_case "cache reuse and reset" `Quick test_cache_reuse;
    Alcotest.test_case "benchmark languages agree" `Quick test_langs_agree;
    QCheck_alcotest.to_alcotest prop_differential;
  ]

let () = Alcotest.run "costar_gss" [ ("gss", suite) ]
