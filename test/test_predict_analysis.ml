(* The static prediction analyzer (lib/analysis_predict): lookahead bounds,
   conflict pairs and witnesses, ambiguity confirmation, LL-fallback
   prediction, and cache-image round trips — unit tests on known
   grammars plus properties against the instrumented runtime and the Earley
   oracle on randomized grammars. *)

open Costar_grammar
open Costar_core
module A = Costar_predict_analysis.Analyze
module Count = Costar_earley.Count

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let prod_ix g lhs k = List.nth (Grammar.prods_of g (nt g lhs)) k

let decision r g name =
  match A.decision_for r (nt g name) with
  | Some d -> d
  | None -> Alcotest.failf "no decision record for %s" name

(* Fig. 2: deciding S requires scanning past an arbitrarily long A. *)
let fig2 =
  Grammar.define ~start:"S"
    [
      ( "S",
        [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]
      );
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let test_fig2_unbounded () =
  let r = A.analyze fig2 in
  let s = decision r fig2 "S" in
  (match s.A.lookahead with
  | A.Cyclic -> ()
  | la -> Alcotest.failf "S: expected Cyclic, got %s" (A.lookahead_to_string la));
  check "S has a witness pair" true (s.A.conflicts <> []);
  (let c = List.hd s.A.conflicts in
   check_int "pair fst" (prod_ix fig2 "S" 0) (fst c.A.alts);
   check_int "pair snd" (prod_ix fig2 "S" 1) (snd c.A.alts);
   check "no ambiguity" true (c.A.ambiguous_word = None));
  check "S never falls back to LL" false (A.ll_fallback_possible s);
  check "S exercises stable return" true s.A.uses_stable_return;
  let a = decision r fig2 "A" in
  check "A is SLL(1)" true (a.A.lookahead = A.Sll_k 1);
  check "A has no conflicts" true (a.A.conflicts = [])

let test_two_token_lookahead () =
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [
            [ Grammar.n "A"; Grammar.t "x" ]; [ Grammar.n "A"; Grammar.t "y" ];
          ] );
        ("A", [ [ Grammar.t "a" ] ]);
      ]
  in
  let r = A.analyze g in
  check_int "only S is a decision" 1 (List.length r.A.decisions);
  let s = decision r g "S" in
  check "S is SLL(2)" true (s.A.lookahead = A.Sll_k 2);
  check "no conflicts" true (s.A.conflicts = []);
  check "no LL fallback" false (A.ll_fallback_possible s)

let test_duplicate_alternative_ambiguous () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A" ] ]);
        ("A", [ [ Grammar.t "a" ]; [ Grammar.t "b" ]; [ Grammar.t "a" ] ]);
      ]
  in
  let r = A.analyze g in
  let a = decision r g "A" in
  check "A is ambiguous" true (a.A.lookahead = A.Ambiguous);
  let amb =
    List.filter (fun c -> c.A.ambiguous_word <> None) a.A.conflicts
  in
  check_int "one ambiguous pair" 1 (List.length amb);
  let c = List.hd amb in
  check_int "alt 0 vs alt 2 (fst)" (prod_ix g "A" 0) (fst c.A.alts);
  check_int "alt 0 vs alt 2 (snd)" (prod_ix g "A" 2) (snd c.A.alts);
  (match c.A.ambiguous_word with
  | Some w ->
    (* Independent confirmation, with a higher counting cap than the
       analyzer's oracle uses. *)
    check "Earley-confirmed" true
      (Count.count_trees_sym ~cap:3 g (nt g "A") (A.tokens_of_terms g w) >= 2)
  | None -> Alcotest.fail "expected an ambiguous word");
  check "ambiguity manifests at end of input" true (A.ll_fallback_possible a)

let test_decided_without_lookahead () =
  (* The second alternative dies in the initial closure (B derives nothing),
     so the decision is made before any token is read. *)
  let g =
    Grammar.define ~allow_undefined:true ~start:"S"
      [ ("S", [ [ Grammar.t "a" ]; [ Grammar.n "B" ] ]) ]
  in
  let r = A.analyze g in
  let s = decision r g "S" in
  check "SLL(0)" true (s.A.lookahead = A.Sll_k 0)

let test_left_recursion_reported () =
  let g =
    Grammar.define ~start:"S"
      [ ("S", [ [ Grammar.n "S"; Grammar.t "a" ]; [ Grammar.t "b" ] ]) ]
  in
  let r = A.analyze g in
  let s = decision r g "S" in
  match s.A.error with
  | Some (Types.Left_recursive x) -> check_int "on S" (nt g "S") x
  | _ -> Alcotest.fail "expected a left-recursion error"

let test_bound_reported () =
  (* Deciding S needs 4 tokens; with k = 2 the analyzer must say Beyond. *)
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [
            [ Grammar.t "a"; Grammar.t "a"; Grammar.t "a"; Grammar.t "x" ];
            [ Grammar.t "a"; Grammar.t "a"; Grammar.t "a"; Grammar.t "y" ];
          ] );
      ]
  in
  let r = A.analyze ~k:2 g in
  let s = decision r g "S" in
  check "Beyond 2" true (s.A.lookahead = A.Beyond 2);
  check "bound conflict recorded" true (s.A.conflicts <> []);
  let r = A.analyze ~k:8 g in
  let s = decision r g "S" in
  check "SLL(4) with enough budget" true (s.A.lookahead = A.Sll_k 4)

let test_fingerprint () =
  let g1 = fig2 in
  let g2 =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]
        );
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  let g3 =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "e" ] ]
        );
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  Alcotest.(check string)
    "same grammar, same fingerprint" (Grammar.fingerprint g1)
    (Grammar.fingerprint g2);
  check "different grammar, different fingerprint" false
    (String.equal (Grammar.fingerprint g1) (Grammar.fingerprint g3))

let test_image_roundtrip () =
  let g = fig2 in
  let anl = Analysis.make g in
  let fp = Grammar.fingerprint g in
  let r = A.analyze g in
  let s = Cache.image_bytes ~fingerprint:fp r.A.cache in
  (match Cache.of_image_bytes ~anl ~fingerprint:fp s with
  | Ok c ->
    check_int "states survive" (Cache.num_states r.A.cache)
      (Cache.num_states c);
    check_int "transitions survive"
      (Cache.num_transitions r.A.cache)
      (Cache.num_transitions c)
  | Error e ->
    Alcotest.failf "roundtrip failed: %s" (Cache.image_error_to_string e));
  (match Cache.of_image_bytes ~anl ~fingerprint:"0000" s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong fingerprint accepted");
  (match Cache.of_image_bytes ~anl ~fingerprint:fp "hello, world" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let file = Filename.temp_file "costar_cache" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.save_image ~fingerprint:fp r.A.cache file;
      match Cache.load_image ~anl ~fingerprint:fp file with
      | Ok c ->
        check_int "file roundtrip" (Cache.num_states r.A.cache)
          (Cache.num_states c)
      | Error e ->
        Alcotest.failf "file roundtrip failed: %s"
          (Cache.image_error_to_string e))

let test_precompiled_parse_warm () =
  let g = fig2 in
  let p = Parser.make g in
  let words =
    [
      [ "a"; "a"; "b"; "c" ]; [ "b"; "d" ]; [ "a"; "b"; "d" ]; [ "b"; "c" ];
    ]
  in
  (* The cache store is mutable, so snapshot the state count before the
     corpus pass: comparing the same object to itself afterwards would
     always yield zero misses. *)
  let run_all base =
    let before = Cache.num_states base in
    List.iter
      (fun w -> ignore (Util.run ~cache:base p (Grammar.tokens g w)))
      words;
    Cache.num_states base - before
  in
  let pre = (A.analyze g).A.cache in
  let cold_misses = run_all (Cache.create (Parser.analysis p)) in
  let warm_misses = run_all (Cache.copy pre) in
  check "precompiled cache has fewer cold misses" true
    (warm_misses < cold_misses);
  (* And identical results. *)
  List.iter
    (fun w ->
      let toks = Grammar.tokens g w in
      let r_cold = Util.run p toks in
      let r_warm = Util.run ~cache:pre p toks in
      check "warm result identical" true (Util.same_result r_cold r_warm))
    words

(* Properties on randomized grammars. *)

(* A decision the analyzer classifies SLL(k) with no conflicts must never
   take the LL fallback at runtime: fallback requires an SLL Ambig verdict,
   which requires a reachable pending state with two accepting predictions —
   exactly what the analyzer reports as an at-EOF conflict. *)
let prop_safe_decisions_never_fall_back =
  QCheck.Test.make ~count:80 ~name:"analyzer SLL(k)-unique => no LL fallback"
    Util.arb_grammar_word (fun (g, w) ->
      let r = A.analyze ~oracle:false g in
      let safe =
        List.filter_map
          (fun (d : A.decision) ->
            match d.A.lookahead, d.A.error with
            | A.Sll_k _, None when d.A.conflicts = [] -> Some d.A.nt
            | _ -> None)
          r.A.decisions
      in
      if safe = [] then true
      else begin
        let p = Parser.make g in
        Instr.reset ();
        Instr.enabled := true;
        ignore (Util.run p (Grammar.tokens g w));
        Instr.enabled := false;
        let rows = Instr.report () in
        List.for_all
          (fun x ->
            not
              (List.exists
                 (fun (y, mode, _, _) -> y = x && mode = `Ll)
                 rows))
          safe
      end)

(* Every ambiguous word the analyzer reports must be confirmed ambiguous by
   the Earley derivation-counting oracle (run here with a different cap). *)
let prop_ambiguous_words_confirmed =
  QCheck.Test.make ~count:60 ~name:"analyzer ambiguity witnesses are genuine"
    (QCheck.make Util.gen_grammar ~print:(Fmt.to_to_string Grammar.pp))
    (fun g ->
      let r = A.analyze g in
      List.for_all
        (fun (d : A.decision) ->
          List.for_all
            (fun (c : A.conflict) ->
              match c.A.ambiguous_word with
              | None -> true
              | Some w ->
                Count.count_trees_sym ~cap:3 g d.A.nt (A.tokens_of_terms g w)
                >= 2)
            d.A.conflicts)
        r.A.decisions)

(* Re-analyzing on top of the already-populated cache must not change any
   verdict (the lint driver and `costar analyze --emit-image` rely on it). *)
let prop_analysis_cache_stable =
  QCheck.Test.make ~count:60 ~name:"analysis is stable under cache reuse"
    (QCheck.make Util.gen_grammar ~print:(Fmt.to_to_string Grammar.pp))
    (fun g ->
      let r1 = A.analyze ~oracle:false g in
      let r2 = A.analyze ~oracle:false ~cache:r1.A.cache g in
      List.length r1.A.decisions = List.length r2.A.decisions
      && List.for_all2
           (fun (d1 : A.decision) (d2 : A.decision) ->
             d1.A.nt = d2.A.nt
             && d1.A.lookahead = d2.A.lookahead
             && d1.A.conflicts = d2.A.conflicts
             && d1.A.error = d2.A.error)
           r1.A.decisions r2.A.decisions)

(* Parsing with the analyzer's cache is semantically transparent. *)
let prop_precompiled_cache_transparent =
  QCheck.Test.make ~count:80 ~name:"precompiled cache never changes results"
    Util.arb_grammar_word (fun (g, w) ->
      let p = Parser.make g in
      let toks = Grammar.tokens g w in
      let pre = (A.analyze ~oracle:false g).A.cache in
      Util.same_result (Util.run p toks) (Util.run ~cache:pre p toks))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_safe_decisions_never_fall_back;
      prop_ambiguous_words_confirmed;
      prop_analysis_cache_stable;
      prop_precompiled_cache_transparent;
    ]

let () =
  Alcotest.run "predict_analysis"
    [
      ( "unit",
        [
          Alcotest.test_case "fig2 unbounded" `Quick test_fig2_unbounded;
          Alcotest.test_case "two-token lookahead" `Quick
            test_two_token_lookahead;
          Alcotest.test_case "duplicate alternative is ambiguous" `Quick
            test_duplicate_alternative_ambiguous;
          Alcotest.test_case "decided without lookahead" `Quick
            test_decided_without_lookahead;
          Alcotest.test_case "left recursion reported" `Quick
            test_left_recursion_reported;
          Alcotest.test_case "bound reported" `Quick test_bound_reported;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "precompiled parse warm" `Quick
            test_precompiled_parse_warm;
        ] );
      ("properties", props);
    ]
