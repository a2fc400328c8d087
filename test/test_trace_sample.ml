(* Trace-rendering and sentence-sampling tests. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let word names = Word.of_tokens (Grammar.tokens fig2 names)

let test_trace_fig2 () =
  let p = Parser.make fig2 in
  let lines, result = Trace.run p (word [ "a"; "b"; "d" ]) in
  check_int "ten states" 10 (List.length lines);
  (match result with
  | Parser.Unique _ -> ()
  | _ -> Alcotest.fail "expected Unique");
  (* The initial state shows the start symbol and the full input. *)
  let first = List.hd lines in
  check "start symbol shown" true (contains first "[S]");
  check "input shown" true (contains first "a b d");
  (* After the second push, the visited set is {S, A} (Fig. 2's sigma_2). *)
  let s2 = List.nth lines 2 in
  check "visited {S,A}" true (contains s2 "visited: {S,A}");
  (* The final state holds the finished tree. *)
  let last = List.nth lines 9 in
  check "final tree" true (contains last "(S (A 'a' (A 'b')) 'd')")

let test_trace_reject () =
  let p = Parser.make fig2 in
  let lines, result = Trace.run p (word [ "a"; "b" ]) in
  (* Prediction for S scans to end of input and finds no viable right-hand
     side, so the machine rejects in its very first configuration. *)
  check "some states" true (List.length lines >= 1);
  match result with
  | Parser.Reject _ -> ()
  | _ -> Alcotest.fail "expected Reject"

(* The trace is a function of the machine states alone: running over a
   cache another parse already warmed renders the same lines, and reaches
   the same result, as running over a fresh one. *)
let test_trace_warm_cache () =
  List.iter
    (fun names ->
      let p = Parser.make fig2 in
      let fresh_lines, fresh = Trace.run p (word names) in
      let warm = Cache.create (Parser.analysis p) in
      ignore (Parser.run_word ~cache:warm p (word [ "a"; "a"; "b"; "c" ]));
      ignore (Parser.run_word ~cache:warm p (word names));
      let warm_lines, warmed = Trace.run ~cache:warm p (word names) in
      Alcotest.(check (list string))
        (String.concat " " names ^ ": same lines")
        fresh_lines warm_lines;
      Alcotest.(check string)
        (String.concat " " names ^ ": same result")
        (Fmt.str "%a" (Parser.pp_result fig2) fresh)
        (Fmt.str "%a" (Parser.pp_result fig2) warmed))
    [ [ "a"; "b"; "d" ]; [ "a"; "b" ]; [ "b"; "c" ] ]

let test_sample_valid () =
  (* Every sampled sentence is accepted by the oracle. *)
  let rand = Random.State.make [| 11 |] in
  let produced = ref 0 in
  for _ = 1 to 100 do
    match Sample.tokens fig2 rand with
    | Some w ->
      incr produced;
      check "oracle accepts" true (Costar_earley.Recognizer.accepts fig2 w)
    | None -> ()
  done;
  check "produces sentences" true (!produced > 50)

let test_sample_max_len () =
  (* Sampling is total on productive grammars, and [max_len] caps the
     random exploration: once the emitted prefix reaches it, every
     remaining nonterminal finishes by its shortest derivation.  For fig2
     the pending form is always [A; c|d], so the overshoot is at most 2. *)
  let rand = Random.State.make [| 3 |] in
  let anl = Analysis.make fig2 in
  for _ = 1 to 100 do
    match Sample.sentence ~max_len:5 ~analysis:anl fig2 rand with
    | Some w -> check "max_len bounds exploration" true (List.length w <= 7)
    | None -> Alcotest.fail "sampling a productive grammar returned None"
  done

let test_sample_total_deep () =
  (* A grammar whose every sentence has 128 terminals: the old fuel-steered
     walk hit its length budget and returned None; the shortest-derivation
     fallback is total. *)
  let rules =
    ("D0", [ [ Grammar.t "x" ] ])
    :: List.init 7 (fun i ->
           let d k = "D" ^ string_of_int k in
           (d (i + 1), [ [ Grammar.n (d i); Grammar.n (d i) ] ]))
  in
  let g = Grammar.define ~start:"D7" (List.rev rules) in
  let rand = Rng.of_seed 5 in
  match Sample.sentence g rand with
  | None -> Alcotest.fail "deep productive grammar sampled None"
  | Some w -> check_int "all 128 leaves" 128 (List.length w)

let test_sample_deterministic () =
  let draw () =
    let rand = Rng.of_seed 42 in
    List.init 10 (fun _ -> Sample.sentence fig2 rand)
  in
  check "same seed, same sentences" true (draw () = draw ())

let test_sample_nonproductive () =
  let g =
    Grammar.define ~start:"S" [ ("S", [ [ Grammar.n "S"; Grammar.t "x" ] ]) ]
  in
  let rand = Random.State.make [| 1 |] in
  check "no sentence from empty language" true (Sample.sentence g rand = None)

let prop_samples_parse =
  QCheck.Test.make ~count:300 ~name:"sampled sentences parse"
    (QCheck.make
       ~print:(fun g -> Fmt.str "%a" Grammar.pp g)
       Util.gen_grammar)
    (fun g ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let rand = Random.State.make [| 17 |] in
        match Sample.tokens g rand with
        | None -> true
        | Some w -> (
          match Parser.parse g w with
          | Parser.Unique _ | Parser.Ambig _ -> true
          | Parser.Reject _ | Parser.Error _ -> false)))

let suite =
  [
    Alcotest.test_case "fig2 trace" `Quick test_trace_fig2;
    Alcotest.test_case "reject trace" `Quick test_trace_reject;
    Alcotest.test_case "warm-cache trace = fresh-cache trace" `Quick
      test_trace_warm_cache;
    Alcotest.test_case "samples are valid" `Quick test_sample_valid;
    Alcotest.test_case "sample max_len" `Quick test_sample_max_len;
    Alcotest.test_case "sample total on deep grammars" `Quick
      test_sample_total_deep;
    Alcotest.test_case "sample deterministic by seed" `Quick
      test_sample_deterministic;
    Alcotest.test_case "non-productive grammar" `Quick test_sample_nonproductive;
    QCheck_alcotest.to_alcotest prop_samples_parse;
  ]

let () = Alcotest.run "costar_trace_sample" [ ("trace+sample", suite) ]
