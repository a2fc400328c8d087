(* Property-based differential tests: the paper's theorems as executable
   properties over random grammars and words (DESIGN.md, Section 4).

   - Soundness (Thms 5.1, 5.6): returned trees satisfy the Fig. 3 derivation
     relation, and their Unique/Ambig labels agree with the capped
     derivation-count oracle.
   - Completeness (Thms 5.11, 5.12): the oracle accepts iff the parser does.
   - Error-free termination (Thm 5.8): no Error for statically
     non-left-recursive grammars.
   - Left-recursion detection soundness (Lemma 5.10): a LeftRecursive error
     always names a statically confirmed left-recursive nonterminal.
   - Lemmas 4.2-4.4: every machine step strictly decreases the well-founded
     measure.
   - StacksWf_I (Fig. 4): stack well-formedness is invariant. *)

open Costar_grammar
open Costar_core

let toks g names = Grammar.tokens g names

let prop_oracle_agreement =
  QCheck.Test.make ~count:1000 ~name:"parse result agrees with oracle"
    Util.arb_grammar_word (fun (g, w) ->
      let word = toks g w in
      let result = Parser.parse g word in
      match Left_recursion.check g with
      | Error lr_nts -> (
        (* Left-recursive grammar: no oracle comparison (the parser may
           legitimately error), but any tree must still be sound and any
           left-recursion report must be statically confirmed. *)
        match result with
        | Parser.Unique v | Parser.Ambig v ->
          Derivation.recognizes_start g word v
        | Parser.Reject _ -> true
        | Parser.Error (Types.Left_recursive x) -> List.mem x lr_nts
        | Parser.Error (Types.Invalid_state _) -> false)
      | Ok () -> (
        let count = Costar_earley.Count.count_trees ~cap:2 g word in
        match result with
        | Parser.Unique v ->
          count = 1 && Derivation.recognizes_start g word v
        | Parser.Ambig v ->
          count >= 2 && Derivation.recognizes_start g word v
        | Parser.Reject _ -> count = 0
        | Parser.Error _ -> false))

let prop_earley_agreement =
  QCheck.Test.make ~count:500 ~name:"recognizer agrees with counting oracle"
    Util.arb_grammar_word (fun (g, w) ->
      let word = toks g w in
      let earley = Costar_earley.Recognizer.accepts g word in
      let count = Costar_earley.Count.count_trees ~cap:2 g word in
      earley = (count > 0))

let prop_measure_decreases =
  QCheck.Test.make ~count:300 ~name:"steps decrease the measure (Lemma 4.2)"
    Util.arb_grammar_word (fun (g, w) ->
      let word = toks g w in
      let p = Parser.make g in
      let states = ref [] in
      let _ =
        Util.run p
          ~inspect:(fun ctx st -> states := Measure.meas g ctx st :: !states)
          word
      in
      (* [states] is newest-first; check successive pairs. *)
      let rec ok = function
        | m2 :: m1 :: rest -> Measure.compare m2 m1 < 0 && ok (m1 :: rest)
        | _ -> true
      in
      ok !states)

let prop_stacks_wf =
  QCheck.Test.make ~count:300 ~name:"StacksWf_I is invariant (Fig. 4)"
    Util.arb_grammar_word (fun (g, w) ->
      let word = toks g w in
      let p = Parser.make g in
      let all_wf = ref true in
      let env = Parser.env p in
      let _ =
        Util.run p
          ~inspect:(fun ctx st ->
            all_wf := !all_wf && Machine.stacks_wf env ctx st)
          word
      in
      !all_wf)

(* The machine derives the paper's bookkeeping instead of storing it: a
   frame's processed symbols from its trees, the visited set from the
   frames' push positions.  At every step both must equal the shadow kept
   by the paper's own rules, and a run ends in [Left_recursive x] exactly
   when the paper's guard rejects pushing [x]. *)
let prop_derived_bookkeeping =
  QCheck.Test.make ~count:300
    ~name:"derived visited set and symbols follow the paper's rules"
    Util.arb_grammar_word (fun (g, w) ->
      let sh = Util.Shadow.create () in
      let p = Parser.make g in
      let r = Util.run p ~inspect:(Util.Shadow.observe sh) (toks g w) in
      let e = match r with Parser.Error e -> Some e | _ -> None in
      match Util.Shadow.check_error sh (Parser.env p) e with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Single-alternative decisions predict without a closure, so only the
   machine's own guard catches S -> A -> S at one position. *)
let test_guard_left_recursion () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "a" ] ]);
        ("A", [ [ Grammar.n "S"; Grammar.t "b" ] ]);
      ]
  in
  let sh = Util.Shadow.create () in
  let p = Parser.make g in
  match Util.run p ~inspect:(Util.Shadow.observe sh) (toks g [ "b"; "a" ]) with
  | Parser.Error (Types.Left_recursive x as e) ->
    Alcotest.(check string)
      "guard names S" "S" (Grammar.nonterminal_name g x);
    Alcotest.(check (option string))
      "shadow agrees" None
      (Util.Shadow.check_error sh (Parser.env p) (Some e))
  | _ -> Alcotest.fail "expected Left_recursive S"

let prop_valid_sentences_accepted =
  (* Words sampled from the grammar itself parse successfully (for non-LR
     grammars): a direct completeness check that does not rely on the word
     generator's 50/50 mix. *)
  QCheck.Test.make ~count:500 ~name:"sampled sentences are accepted"
    (QCheck.make ~print:Util.print_case
       (QCheck.Gen.( >>= ) Util.gen_grammar (fun g ->
            fun st ->
             match Util.random_sentence g st with
             | Some w -> (g, w)
             | None -> (g, []))))
    (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let word = toks g w in
        if not (Costar_earley.Recognizer.accepts g word) then true
        else
          match Parser.parse g word with
          | Parser.Unique v | Parser.Ambig v ->
            Derivation.recognizes_start g word v
          | Parser.Reject _ | Parser.Error _ -> false))

let prop_cache_reuse_stable =
  (* Running with a reused cache gives the same result as a fresh cache.
     The reused cache's first-token table must actually answer: once it
     holds an entry for the start decision at the first token, the warm
     run's first push reads it. *)
  QCheck.Test.make ~count:200 ~name:"warm cache does not change results"
    Util.arb_grammar_word (fun (g, w) ->
      let word = toks g w in
      let p = Parser.make g in
      let r1 = Util.run p word in
      let cache = Cache.create (Parser.analysis p) in
      ignore (Util.run ~cache p word);
      let start_entry =
        Cache.decision cache (Grammar.start g) (Word.of_tokens word) 0
      in
      Instr.reset ();
      Instr.enabled := true;
      let r2 = Util.run ~cache p word in
      Instr.enabled := false;
      let hits = (Instr.cache_totals ()).Instr.table_hits in
      if start_entry >= 0 && hits = 0 then
        QCheck.Test.fail_report "the warm run never read the table";
      Util.same_result ~messages:true r1 r2)

let prop_machine_loops_agree =
  (* The unboxed loop, the loop under an [inspect] hook and iterated
     [Machine.step] stop alike (test/util.ml), cold and then with the
     cache and its table warm, left-recursive grammars included. *)
  QCheck.Test.make ~count:600 ~name:"unboxed multistep = iterated step"
    Util.arb_grammar_word (fun (g, w) ->
      let p = Parser.make g in
      let word = Word.of_tokens (toks g w) in
      let check () =
        match Util.Loops.disagreement p word with
        | None -> ()
        | Some (n1, s1, n2, s2) ->
          QCheck.Test.fail_reportf "%s: %s@.%s: %s" n1 s1 n2 s2
      in
      check ();
      check ();
      true)

let prop_sll_overapproximates_ll =
  (* Direct check of the failover soundness argument (Lemma 5.4) at the
     start-symbol decision: when the word is genuinely in the language,
     neither SLL nor LL may reject the start decision, and if both commit
     to a Unique alternative it must be the same one.  (When no alternative
     is viable, SLL and LL may "uniquely" commit to different vacuous
     choices, so the comparison is only meaningful on accepted words.) *)
  QCheck.Test.make ~count:300 ~name:"SLL Unique implies LL agrees"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () ->
        let word = toks g w in
        let x = Grammar.start g in
        if
          List.length (Grammar.prods_of g x) < 2
          || not (Costar_earley.Recognizer.accepts g word)
        then true
        else
          let anl = Analysis.make g in
          let cursor = Word.of_tokens word in
          let sll = fst (Sll.predict g anl (Cache.create anl) x cursor 0) in
          let ll = fst (Ll.predict g anl x [ [] ] cursor 0) in
          let not_stuck = function
            | Types.Reject_pred | Types.Error_pred _ -> false
            | Types.Unique_pred _ | Types.Ambig_pred _ -> true
          in
          not_stuck sll && not_stuck ll
          &&
          match sll, ll with
          | Types.Unique_pred i, Types.Unique_pred j -> i = j
          | Types.Unique_pred _, Types.Ambig_pred _ ->
            (* SLL claiming a sole viable alternative contradicts true
               ambiguity at this decision. *)
            false
          | _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_oracle_agreement;
      prop_earley_agreement;
      prop_measure_decreases;
      prop_stacks_wf;
      prop_derived_bookkeeping;
      prop_valid_sentences_accepted;
      prop_cache_reuse_stable;
      prop_machine_loops_agree;
      prop_sll_overapproximates_ll;
    ]

let () =
  Alcotest.run "costar_properties"
    [
      ("properties", props);
      ( "guard",
        [
          Alcotest.test_case "machine guard on S -> A -> S" `Quick
            test_guard_left_recursion;
        ] );
    ]
