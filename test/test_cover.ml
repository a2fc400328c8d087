(* Decision-coverage analysis and witness-directed generation
   (lib/analysis_cover) against its contracts:

   - generator soundness: every sentence produced by [Witness.close] runs
     the differential trio (core / Extracted / Earley) without disagreement,
     with the §4 measure decreasing and rejection diagnostics position-sane;
   - closure: on the built-in languages, [close] drives every coverage kind
     to 100% (json/xml exactly; dot/minipy may keep C002-flagged residue);
   - dead-tag soundness (the key static property, on random grammars): no
     target tagged Dead is ever hit at runtime, and every coverable target
     still uncovered after [close] carries a C-coded residual diagnostic;
   - fixed-seed differential: language corpora at fixed seeds pass the
     fuzz gate;
   - power: a seeded fault in the core's decision table fails the gate. *)

open Costar_grammar
module Cover = Costar_cover.Cover
module Witness = Costar_cover.Witness
module Diff = Costar_cover.Diff
module Analyze = Costar_predict_analysis.Analyze
module Lang = Costar_langs.Lang

let check = Alcotest.(check bool)

let langs =
  Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

(* --- closure on the built-in languages ----------------------------------- *)

let test_close_builtin () =
  List.iter
    (fun l ->
      let name = l.Lang.name in
      let g = Lang.grammar l in
      let t = Cover.make ~scanner:(Lang.scanner l) g in
      let _generated = Witness.close t in
      List.iter
        (fun (k, (s : Cover.summary)) ->
          let full = s.Cover.covered = s.Cover.coverable in
          if not full then begin
            (* Residue is only acceptable when every leftover target is
               C-flagged with a witness-chain note. *)
            let residue = List.length (Cover.residual t) in
            let diags = Witness.residual_diags t in
            Alcotest.(check int)
              (Printf.sprintf "%s %s: every residual target has a C diagnostic"
                 name (Cover.kind_name k))
              residue (List.length diags)
          end;
          (* json and xml close completely on every kind. *)
          if name = "json" || name = "xml" then
            check
              (Printf.sprintf "%s %s: closed to 100%%" name (Cover.kind_name k))
              true full)
        (Cover.summary t))
    langs

(* Sentences generated by close are trio-clean: parse them through the
   differential runner and require no disagreement. *)
let test_generated_sentences_differential () =
  List.iter
    (fun l ->
      let g = Lang.grammar l in
      let t = Cover.make ~scanner:(Lang.scanner l) g in
      let generated = Witness.close t in
      let extracted = Diff.extracted g in
      let budget = ref 60 in
      List.iter
        (fun (w : Witness.generated) ->
          match w.Witness.tokens with
          | Some terms when !budget > 0 ->
            decr budget;
            (match Diff.run ~extracted g (Analyze.tokens_of_terms g terms) with
            | Ok () -> ()
            | Error msg ->
              Alcotest.failf "%s: differential failure on %S: %s" l.Lang.name
                w.Witness.label msg)
          | _ -> ())
        generated)
    [ Costar_langs.Json.lang; Costar_langs.Xml.lang ]

(* --- dead-tag soundness on random grammars ------------------------------- *)

let prop_cover_sound =
  QCheck.Test.make ~count:150 ~name:"close is sound on random grammars"
    (QCheck.make Util.gen_grammar ~print:(Fmt.str "%a" Grammar.pp))
    (fun g ->
      (* The analyzer requires statically non-left-recursive grammars. *)
      QCheck.assume (Left_recursion.check g = Ok ());
      let t = Cover.make g in
      let generated = Witness.close t in
      (* Dead-tag soundness: an ACCEPTING run never touches a dead target.
         (Rejecting runs may — edge witnesses reject by design, and the
         machine pushes a production before discovering the remainder of
         the input is hopeless.)  Replay only the accepted sentences into a
         fresh instrumented universe and demand zero dead hits. *)
      let t2 = Cover.make g in
      let p = Costar_core.Parser.make g in
      List.iter
        (fun (w : Witness.generated) ->
          match w.Witness.tokens with
          | None -> ()
          | Some terms -> (
            let toks = Analyze.tokens_of_terms g terms in
            match Util.run p toks with
            | Costar_core.Parser.Unique _ | Costar_core.Parser.Ambig _ ->
              ignore (Cover.mark_tokens t2 toks)
            | _ -> ()))
        generated;
      Array.iter
        (fun (e : Cover.entry) ->
          match e.Cover.status with
          | Cover.Dead { code; _ } ->
            if e.Cover.hits > 0 then
              QCheck.Test.fail_reportf
                "dead target hit by an accepting run (%s): %s" code
                (Cover.describe t2 e.Cover.target)
          | Cover.Coverable -> ())
        t2.Cover.entries;
      (* Whatever close could not reach must carry a C-coded residual
         diagnostic: 100% coverage or flagged residue, never silence. *)
      let residue = Cover.residual t in
      let diags = Witness.residual_diags t in
      List.length residue = List.length diags
      && List.for_all
           (fun (d : Costar_lint.Diagnostic.t) ->
             String.length d.Costar_lint.Diagnostic.code > 0
             && d.Costar_lint.Diagnostic.code.[0] = 'C')
           diags)

(* Generated sentences on random grammars are trio-clean too. *)
let prop_generated_differential =
  QCheck.Test.make ~count:40 ~name:"generated sentences pass the fuzz gate"
    (QCheck.make Util.gen_grammar ~print:(Fmt.str "%a" Grammar.pp))
    (fun g ->
      QCheck.assume (Left_recursion.check g = Ok ());
      let t = Cover.make g in
      let generated = Witness.close t in
      let extracted = Diff.extracted g in
      (* Bound the Earley work: highly ambiguous random grammars make the
         oracle blow up on long sentences, so diff a capped sample of the
         short ones. *)
      let budget = ref 25 in
      List.for_all
        (fun (w : Witness.generated) ->
          match w.Witness.tokens with
          | Some terms when !budget > 0 && List.length terms <= 30 -> (
            decr budget;
            match Diff.run ~extracted g (Analyze.tokens_of_terms g terms) with
            | Ok () -> true
            | Error msg ->
              QCheck.Test.fail_reportf "differential failure on %S: %s"
                w.Witness.label msg)
          | _ -> true)
        generated)

(* --- fixed-seed differential over language corpora ----------------------- *)

let test_fixed_seed_corpus () =
  List.iter
    (fun l ->
      let g = Lang.grammar l in
      let extracted = Diff.extracted g in
      List.iter
        (fun seed ->
          (* Small corpora: the Earley oracle in the trio is cubic. *)
          let input = Lang.generate l ~seed ~size:8 in
          let toks = Lang.tokenize_exn l input in
          match Diff.run ~extracted g toks with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s seed %d: %s" l.Lang.name seed msg)
        [ 1; 2; 3 ])
    langs

(* --- the gate keeps its power ---------------------------------------------- *)

(* A seeded fault: one wrong static LL(1) entry, written into a test-local
   copy of a json parser's first-token table, sends the core down
   [value]'s STRING alternative on a NUMBER.  The engine-agreement check
   must report a core/Extracted mismatch there, and agreement on the same
   sentence with the unpoisoned table. *)
let test_seeded_fault () =
  let module P = Costar_core.Parser in
  let module C = Costar_core.Cache in
  let l = Costar_langs.Json.lang in
  let g = Lang.grammar l in
  let p = P.make g in
  let toks = Lang.tokenize_exn l {|[1, "a"]|} in
  let ex = Costar_extracted.Extracted.(parse_tokens (of_grammar g) g toks) in
  let agree cache =
    Diff.agree_extracted g (P.run_word ~cache p (Word.of_tokens toks)) ex
  in
  check "unpoisoned table agrees" true (agree (C.copy (P.base_cache p)) = Ok ());
  let term name = Option.get (Grammar.terminal_of_name g name) in
  let value = Option.get (Grammar.nonterminal_of_name g "value") in
  let string_prod =
    Option.get (Grammar.find_production g value [ Symbols.T (term "STRING") ])
  in
  let poisoned = C.copy (P.base_cache p) in
  let row = C.decisions poisoned in
  let cell = (value * (Grammar.num_terminals g + 1)) + term "NUMBER" in
  check "value/NUMBER is a static entry" true (row.(cell) land 3 = 3);
  row.(cell) <- (string_prod.Grammar.ix lsl 2) lor 3;
  match agree poisoned with
  | Ok () -> Alcotest.fail "the gate passed a poisoned table entry"
  | Error msg ->
    check ("core/Extracted mismatch reported: " ^ msg) true
      (String.starts_with ~prefix:"extracted/core" msg)

(* --- position sanity ------------------------------------------------------ *)

let test_position_sane () =
  let g = Lang.grammar Costar_langs.Json.lang in
  let toks = Lang.tokenize_exn Costar_langs.Json.lang "[1,\n2]" in
  check "in-range line accepted" true
    (Diff.position_sane toks "unexpected token at line 2" = Ok ());
  check "one-past-the-end accepted" true
    (Diff.position_sane toks "unexpected end of input at line 3" = Ok ());
  check "out-of-range line rejected" true
    (Result.is_error (Diff.position_sane toks "bogus failure at line 7"));
  check "empty message rejected" true
    (Result.is_error (Diff.position_sane toks ""));
  ignore g

let () =
  Alcotest.run "costar_cover"
    [
      ( "cover",
        [
          Alcotest.test_case "close on built-in languages" `Quick
            test_close_builtin;
          Alcotest.test_case "generated sentences are trio-clean" `Quick
            test_generated_sentences_differential;
          Alcotest.test_case "fixed-seed corpus differential" `Quick
            test_fixed_seed_corpus;
          Alcotest.test_case "position sanity" `Quick test_position_sane;
          (* Fixed seed: the fuzz gate must be reproducible run to run. *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_cover_sound;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_generated_differential;
          Alcotest.test_case "seeded table fault fails the gate" `Quick
            test_seeded_fault;
        ] );
    ]
