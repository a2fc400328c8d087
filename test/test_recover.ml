(* The error-recovery engine's hard obligations (DESIGN.md §14):

   - Conservativity: with recovery enabled, a well-formed input yields a
     bit-identical tree, an empty event list, and an identical DFA-cache
     evolution — the engine drives the very same machine steps.
   - Productivity: a rejected input yields a partial tree with explicit
     error nodes and at least one coded, span-sane diagnostic.
   - Termination: every machine step and every committed repair strictly
     decreases the extended §4 measure ([~verify_measure:true] raises on
     any violation, so these tests double as the no-hang gate).

   Checked differentially over the four built-in languages' generated
   corpora, over 500 random grammars with mixed valid/invalid words, and
   as QCheck span/ordering properties over deterministic mutants. *)

open Costar_grammar
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module R = Costar_recover.Recover
module D = Costar_lint.Diagnostic
module Mutate = Costar_cover.Mutate
module Lang = Costar_langs.Lang

let langs = Costar_langs.Registry.all

(* One clean-input comparison: plain engine vs recovery engine, each from
   its own fresh cache, demanding identical trees and identical cache
   growth. *)
let check_conservative ?(what = "input") p eng word =
  let anl = P.analysis p in
  let c1 = Cache.create anl and c2 = Cache.create anl in
  let plain = P.run_word ~cache:c1 p word in
  let o = R.run_word ~verify_measure:true ~cache:c2 eng word in
  (match (plain, o.R.verdict) with
  | P.Unique t1, R.Recovered t2 | P.Ambig t1, R.Recovered_ambig t2 ->
    if o.R.events <> [] then
      Alcotest.failf "%s: clean parse produced %d recovery events" what
        (List.length o.R.events);
    if not (Tree.equal t1 t2) then
      Alcotest.failf "%s: recovery tree differs from the plain tree" what
  | P.Reject _, _ | _, R.Fatal _ | P.Error _, _ ->
    Alcotest.failf "%s: expected a clean parse" what
  | _ ->
    Alcotest.failf "%s: verdict mismatch on a clean parse" what);
  if
    Cache.num_states c1 <> Cache.num_states c2
    || Cache.num_transitions c1 <> Cache.num_transitions c2
  then
    Alcotest.failf
      "%s: cache evolution differs (plain %d states/%d transitions, \
       recovery %d/%d)"
      what (Cache.num_states c1)
      (Cache.num_transitions c1)
      (Cache.num_states c2)
      (Cache.num_transitions c2)

(* --- Built-in language corpora ------------------------------------------ *)

let test_corpus_conservative () =
  List.iter
    (fun l ->
      let p = P.make (Lang.grammar l) in
      let eng = R.make p in
      List.iter
        (fun (seed, size) ->
          let src = Lang.generate l ~seed ~size in
          let toks = Lang.tokenize_exn l src in
          check_conservative
            ~what:(Printf.sprintf "%s seed=%d size=%d" l.Lang.name seed size)
            p eng (Word.of_tokens toks))
        [ (0, 5); (1, 20); (2, 40); (3, 80); (4, 10) ])
    langs

(* Deterministic mutants of each language's corpus: rejected ones must
   recover with diagnostics; accepted ones must stay conservative. *)
let test_corpus_mutants () =
  List.iter
    (fun l ->
      let g = Lang.grammar l in
      let p = P.make g in
      let eng = R.make p in
      let source = Lang.generate l ~seed:0 ~size:30 in
      let tokens = Lang.tokenize_exn l source in
      let rejected = ref 0 in
      for k = 0 to 199 do
        let rng = Rng.split 42 k in
        let toks' =
          match Mutate.derive rng ~source ~tokens with
          | Mutate.Tokens (toks', _) -> Some toks'
          | Mutate.Source (s, _) -> (
            match Lang.tokenize l s with Ok t -> Some t | Error _ -> None)
        in
        match toks' with
        | None -> () (* lexical rejection: P004 is the CLI's concern *)
        | Some toks' -> (
          let word = Word.of_tokens toks' in
          match P.run_word p word with
          | P.Unique _ | P.Ambig _ -> check_conservative p eng word
          | P.Error _ -> ()
          | P.Reject _ -> (
            incr rejected;
            let o = R.run_word ~verify_measure:true eng word in
            match o.R.verdict with
            | R.Fatal _ ->
              Alcotest.failf "%s mutant %d: recovery was Fatal on a Reject"
                l.Lang.name k
            | R.Recovered t | R.Recovered_ambig t ->
              if o.R.events = [] then
                Alcotest.failf "%s mutant %d: rejected input, no events"
                  l.Lang.name k;
              if not (Tree.has_errors t) then
                Alcotest.failf
                  "%s mutant %d: partial tree has no error nodes" l.Lang.name
                  k;
              List.iter
                (fun (e : R.event) ->
                  if e.R.diag.D.message = "" then
                    Alcotest.failf "%s mutant %d: empty diagnostic"
                      l.Lang.name k)
                o.R.events))
      done;
      if !rejected = 0 then
        Alcotest.failf "%s: no mutant was rejected (mutators too tame?)"
          l.Lang.name)
    langs

(* The derived bookkeeping under repair surgery: over corpus mutants and
   random grammars, every state recovery resumes from — machine steps and
   committed repairs alike — must agree with the paper's visited set and
   processed symbols kept by the old rules (test/util.ml). *)
let shadow_run p eng word =
  let sh = Util.Shadow.create () in
  let o = R.run_word ~inspect:(Util.Shadow.observe sh) eng word in
  let e = match o.R.verdict with R.Fatal e -> Some e | _ -> None in
  Util.Shadow.check_error sh (P.env p) e

let test_derived_bookkeeping () =
  List.iter
    (fun l ->
      let p = P.make (Lang.grammar l) in
      let eng = R.make p in
      let source = Lang.generate l ~seed:1 ~size:30 in
      let tokens = Lang.tokenize_exn l source in
      for k = 0 to 99 do
        match Mutate.derive (Rng.split 7 k) ~source ~tokens with
        | Mutate.Source _ -> ()
        | Mutate.Tokens (toks', edit) -> (
          match shadow_run p eng (Word.of_tokens toks') with
          | None -> ()
          | Some msg ->
            Alcotest.failf "%s mutant %d (%s): %s" l.Lang.name k
              (Mutate.edit_to_string edit) msg)
      done)
    langs

(* The unboxed loop against the primitive step on recovery mutants: the
   machine loop three ways from the initial state (test/util.ml), and a
   whole recovery — whose repairs resume the loop from states the loop
   itself stopped in — with and without an [inspect] hook, which switches
   [Machine.multistep] from the fused loop to iterated [Machine.step].
   Then the warmed first-token table against a fresh cache per input. *)
let outcome_summary (o : R.outcome) =
  let verdict =
    match o.R.verdict with
    | R.Recovered _ -> "recovered"
    | R.Recovered_ambig _ -> "recovered-ambig"
    | R.Fatal e -> Fmt.str "fatal %a" Costar_core.Types.pp_error e
  in
  verdict
  :: List.map
       (fun (e : R.event) ->
         Printf.sprintf "%s at %d consumed %d" e.R.diag.D.message e.R.at
           e.R.consumed)
       o.R.events

let same_recovery (o1 : R.outcome) (o2 : R.outcome) =
  outcome_summary o1 = outcome_summary o2
  &&
  match o1.R.verdict, o2.R.verdict with
  | (R.Recovered t1 | R.Recovered_ambig t1), (R.Recovered t2 | R.Recovered_ambig t2)
    ->
    Tree.equal t1 t2
  | _ -> true

let test_mutant_loops_agree () =
  List.iter
    (fun l ->
      let p = P.make (Lang.grammar l) in
      let eng = R.make p in
      let source = Lang.generate l ~seed:2 ~size:30 in
      let tokens = Lang.tokenize_exn l source in
      for k = 0 to 149 do
        let toks' =
          match Mutate.derive (Rng.split 13 k) ~source ~tokens with
          | Mutate.Tokens (toks', _) -> Some toks'
          | Mutate.Source (s, _) -> (
            match Lang.tokenize l s with Ok t -> Some t | Error _ -> None)
        in
        match toks' with
        | None -> ()
        | Some toks' ->
          let word = Word.of_tokens toks' in
          (match Util.Loops.disagreement p word with
          | None -> ()
          | Some (n1, s1, n2, s2) ->
            Alcotest.failf "%s mutant %d: %s %s@.%s %s" l.Lang.name k n1 s1 n2
              s2);
          let plain = R.run_word eng word in
          let hooked = R.run_word ~inspect:(fun _ _ -> ()) eng word in
          if not (same_recovery plain hooked) then
            Alcotest.failf "%s mutant %d: recovery differs with an inspect hook"
              l.Lang.name k;
          (* The base cache and its table are warm by now; a fresh cache
             per input must give the same parse and the same repairs. *)
          let fresh () = Cache.create (P.analysis p) in
          if
            not
              (Util.same_result ~messages:true (P.run_word p word)
                 (P.run_word ~cache:(fresh ()) p word))
          then
            Alcotest.failf "%s mutant %d: warm table parse differs from fresh"
              l.Lang.name k;
          if not (same_recovery plain (R.run_word ~cache:(fresh ()) eng word))
          then
            Alcotest.failf "%s mutant %d: warm table recovery differs from fresh"
              l.Lang.name k
      done;
      if Cache.decisions (P.base_cache p) = Cache.decisions (Cache.create (P.analysis p))
      then
        Alcotest.failf "%s: the base cache's table learned nothing" l.Lang.name)
    langs

let prop_derived_bookkeeping =
  QCheck.Test.make ~count:300
    ~name:"derived bookkeeping follows the paper's rules under repair"
    Util.arb_grammar_word (fun (g, w) ->
      let p = P.make g in
      match shadow_run p (R.make p) (Word.of_tokens (Grammar.tokens g w)) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* --- Random grammars ----------------------------------------------------- *)

(* Recovery-on ≡ recovery-off over random grammars and mixed valid/invalid
   words: conservativity on accepts, productivity on rejects, Fatal only
   where the plain engine errors. *)
let prop_random_grammars =
  QCheck.Test.make ~count:500 ~name:"recovery-on ≡ recovery-off (random)"
    Util.arb_grammar_word (fun (g, w) ->
      let word = Word.of_tokens (Grammar.tokens g w) in
      let p = P.make g in
      let eng = R.make p in
      match Left_recursion.check g with
      | Error _ -> (
        (* Left-recursive grammar: repairs may legitimately steer the
           machine into its left-recursion guard (Fatal), so only demand
           totality — no exception, and events whenever a partial tree
           comes back on a reject. *)
        match (P.run_word p word, (R.run_word eng word).R.verdict) with
        | (P.Unique _ | P.Ambig _), (R.Recovered _ | R.Recovered_ambig _) ->
          check_conservative p eng word;
          true
        | P.Reject _, (R.Recovered t | R.Recovered_ambig t) ->
          Tree.has_errors t
        | _, R.Fatal _ -> true
        | _ -> false)
      | Ok () -> (
        match P.run_word p word with
        | P.Unique _ | P.Ambig _ ->
          check_conservative p eng word;
          true
        | P.Error _ -> false (* Thm 5.8: unreachable for non-LR grammars *)
        | P.Reject _ -> (
          let o = R.run_word ~verify_measure:true eng word in
          match o.R.verdict with
          | R.Fatal _ -> false
          | R.Recovered t | R.Recovered_ambig t ->
            o.R.events <> [] && Tree.has_errors t
            && Tree.yield t = Word.to_tokens word)))

(* --- Span and ordering properties ---------------------------------------- *)

(* Events over real (positioned) inputs: spans lie inside the input (or
   are dummy), event token ranges are in order, non-overlapping, and
   within bounds. *)
let prop_spans =
  QCheck.Test.make ~count:300 ~name:"diagnostic spans lie inside the input"
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, li) ->
      let l = List.nth langs (li mod List.length langs) in
      let source = Lang.generate l ~seed:(seed mod 7) ~size:15 in
      let tokens = Lang.tokenize_exn l source in
      let rng = Rng.split 7 seed in
      match Mutate.derive rng ~source ~tokens with
      | Mutate.Source _ -> true (* byte mutants may not lex; covered above *)
      | Mutate.Tokens (toks', _) ->
        let eng = R.make (P.make (Lang.grammar l)) in
        let o = R.run_word ~verify_measure:true eng (Word.of_tokens toks') in
        let len = List.length toks' in
        let max_line =
          List.fold_left (fun m t -> max m t.Token.line) 1 toks'
        in
        let span_ok (d : D.t) =
          Loc.is_dummy d.D.span
          || d.D.span.Loc.start_line >= 1
             && d.D.span.Loc.end_line <= max_line + 1
             && d.D.span.Loc.start_col >= 0
             && Loc.compare d.D.span d.D.span = 0
             && (d.D.span.Loc.start_line < d.D.span.Loc.end_line
                || d.D.span.Loc.start_col <= d.D.span.Loc.end_col)
        in
        let rec ranges_ok last = function
          | [] -> true
          | (e : R.event) :: rest ->
            e.R.at >= last && e.R.consumed >= 0
            && e.R.at + e.R.consumed <= len
            && ranges_ok (e.R.at + e.R.consumed) rest
        in
        List.for_all (fun (e : R.event) -> span_ok e.R.diag) o.R.events
        && ranges_ok 0 o.R.events)

(* --- Unit checks ---------------------------------------------------------- *)

let test_lex_diag () =
  let d = R.lex_diag ~file:"x.json" "lexical error at line 3, column 7: nope" in
  Alcotest.(check string) "code" "P004" d.D.code;
  Alcotest.(check int) "line" 3 d.D.span.Loc.start_line;
  Alcotest.(check int) "col" 7 d.D.span.Loc.start_col;
  let d2 = R.lex_diag "unpositioned failure" in
  Alcotest.(check bool) "dummy span" true (Loc.is_dummy d2.D.span)

(* max_errors = 0 bails after one diagnostic; the give-up event still
   covers the rest of the input.  The limit also applies to input left
   over once the stack empties: that failure goes through the same repair
   ladder as every other one. *)
let test_max_errors () =
  let l = List.find (fun l -> l.Lang.name = "json") langs in
  let eng = R.make (P.make (Lang.grammar l)) in
  let run max_errors src =
    R.run_word ~verify_measure:true ~max_errors eng
      (Word.of_tokens (Lang.tokenize_exn l src))
  in
  let kinds (o : R.outcome) =
    List.map
      (fun (e : R.event) ->
        match e.R.repair with
        | R.Inserted _ -> "Inserted"
        | R.Deleted -> "Deleted"
        | R.Dropped _ -> "Dropped"
        | R.Skipped _ -> "Skipped"
        | R.Closed _ -> "Closed"
        | R.Gave_up _ -> "Gave_up")
      o.R.events
  in
  let repairs = Alcotest.(check (list string)) in
  let o = run 0 "} } { ] [" in
  Alcotest.(check int) "one event" 1 (List.length o.R.events);
  (match o.R.verdict with
  | R.Recovered t -> Alcotest.(check bool) "errors" true (Tree.has_errors t)
  | _ -> Alcotest.fail "expected Recovered");
  repairs "missing separator, limit 0" [ "Gave_up" ] (kinds (run 0 "[1 2]"));
  repairs "trailing input, limit 0" [ "Gave_up" ] (kinds (run 0 "[1] 2"));
  repairs "trailing input, limit 1" [ "Deleted"; "Gave_up" ]
    (kinds (run 1 "[1 2] 3"));
  (* Without a limit the leftover input is skipped. *)
  repairs "trailing input, no limit" [ "Skipped" ] (kinds (run 100 "[1] 2"))

(* A grammar that is not left-recursive (and derives no word).  Panic
   mode resynchronizes at the failing token by popping one frame and
   skipping nothing; the caller then pushes a nonterminal that a frame
   below already opened at that position, and the push guard reports
   left recursion.  That candidate must be passed over for the next one
   (here: popping three frames), not end the run in
   [Fatal (Left_recursive _)]; the plain parse rejects the word.  QCheck seed 273693237 of the random
   property above found it. *)
let test_guard_after_resync () =
  let g =
    Grammar.define ~extra_terminals:[ "a"; "b"; "c" ] ~start:"S"
      [
        ("S", [ [ Grammar.t "c"; Grammar.n "A" ] ]);
        ("A", [ [ Grammar.n "C"; Grammar.n "A"; Grammar.n "B" ] ]);
        ("B", [ [ Grammar.t "b"; Grammar.n "C" ]; [ Grammar.n "A" ] ]);
        ("C", [ [ Grammar.n "S" ] ]);
      ]
  in
  Alcotest.(check bool) "not left-recursive" true (Result.is_ok (Left_recursion.check g));
  let word =
    Word.of_tokens
      (List.map (fun a -> Grammar.token g a a) [ "b"; "c"; "b"; "c"; "c"; "a"; "b"; "b"; "b"; "c" ])
  in
  let p = P.make g in
  (match P.run_word p word with
  | P.Reject _ -> ()
  | r -> Alcotest.failf "plain parse: expected Reject, got %a" (P.pp_result g) r);
  let o = R.run_word ~verify_measure:true (R.make p) word in
  match o.R.verdict with
  | R.Fatal e ->
    Alcotest.failf "recovery was Fatal: %s" (Costar_core.Types.error_to_string g e)
  | R.Recovered t | R.Recovered_ambig t ->
    Alcotest.(check bool) "events" true (o.R.events <> []);
    Alcotest.(check bool) "error nodes" true (Tree.has_errors t);
    Alcotest.(check bool) "yield is the input" true (Tree.yield t = Word.to_tokens word)

let () =
  Alcotest.run "recover"
    [
      ( "differential",
        [
          Alcotest.test_case "language corpora are conservative" `Quick
            test_corpus_conservative;
          Alcotest.test_case "corpus mutants recover" `Quick
            test_corpus_mutants;
          Alcotest.test_case "mutants keep the paper's bookkeeping" `Quick
            test_derived_bookkeeping;
          Alcotest.test_case "unboxed loop = step, warm = fresh on mutants" `Quick
            test_mutant_loops_agree;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_grammars; prop_spans; prop_derived_bookkeeping ] );
      ( "unit",
        [
          Alcotest.test_case "lex_diag parses positions" `Quick test_lex_diag;
          Alcotest.test_case "max_errors bails early" `Quick test_max_errors;
          Alcotest.test_case "guard trip after a resync" `Quick
            test_guard_after_resync;
        ] );
    ]
