(* Dedicated grammar-analysis tests: sequence-level FIRST/nullable, FOLLOW
   propagation chains, callers deduplication, end-of-input follow
   ("endable") corner cases, and a corpus-scale check of the termination
   measure. *)

open Costar_grammar
open Costar_grammar.Symbols

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let tm g name =
  match Grammar.terminal_of_name g name with
  | Some a -> a
  | None -> Alcotest.failf "unknown terminal %s" name

let g =
  (* S -> A B 'z' ; A -> eps | 'a' ; B -> A 'b' | C ; C -> 'c' C | eps *)
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.n "B"; Grammar.t "z" ] ]);
      ("A", [ []; [ Grammar.t "a" ] ]);
      ("B", [ [ Grammar.n "A"; Grammar.t "b" ]; [ Grammar.n "C" ] ]);
      ("C", [ [ Grammar.t "c"; Grammar.n "C" ]; [] ]);
    ]

let anl = Analysis.make g

let set names = List.sort_uniq compare (List.map (tm g) names)

let test_nullable_seq () =
  check "eps seq" true (Analysis.nullable_seq anl []);
  check "A C" true (Analysis.nullable_seq anl [ NT (nt g "A"); NT (nt g "C") ]);
  check "A B" true (Analysis.nullable_seq anl [ NT (nt g "A"); NT (nt g "B") ]);
  check "with terminal" false
    (Analysis.nullable_seq anl [ NT (nt g "A"); T (tm g "z") ])

let test_first_seq () =
  (* FIRST(A B z) = {a} ∪ FIRST(B) ∪ {z} since A and B are nullable *)
  check "S rhs" true
    (Bitset.elements
       (Analysis.first_seq anl [ NT (nt g "A"); NT (nt g "B"); T (tm g "z") ])
     = set [ "a"; "b"; "c"; "z" ]);
  check "stops at non-nullable" true
    (Bitset.elements (Analysis.first_seq anl [ T (tm g "b"); NT (nt g "C") ])
     = set [ "b" ])

let test_follow_chain () =
  (* FOLLOW(A): from S -> A B z: FIRST(B z) = {a(b via A), b, c, z};
     from B -> A 'b': {b}. *)
  check "follow A" true
    (Bitset.elements (Analysis.follow anl (nt g "A"))
     = set [ "a"; "b"; "c"; "z" ]);
  (* FOLLOW(C) = FOLLOW(B) = {z} *)
  check "follow C" true
    (Bitset.elements (Analysis.follow anl (nt g "C")) = set [ "z" ]);
  check "no end after C" false (Analysis.follow_end anl (nt g "C"));
  check "end after S" true (Analysis.follow_end anl (nt g "S"))

let test_callers_positions () =
  (* A occurs in S (suffix [B z]) and in B (suffix ['b']). *)
  let callers = Analysis.callers anl (nt g "A") in
  check_int "two occurrences" 2 (List.length callers);
  check "S context" true
    (List.exists
       (fun (y, beta) -> y = nt g "S" && List.length beta = 2)
       callers);
  check "B context" true
    (List.exists
       (fun (y, beta) -> y = nt g "B" && List.length beta = 1)
       callers)

let test_callers_dedup () =
  (* The same (caller, suffix) pair appearing in two productions is
     recorded once. *)
  let g2 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "x" ]; [ Grammar.t "y"; Grammar.n "A"; Grammar.t "x" ] ]);
        ("A", [ [ Grammar.t "a" ] ]);
      ]
  in
  let anl2 = Analysis.make g2 in
  check_int "deduped" 1 (List.length (Analysis.callers anl2 (nt g2 "A")))

let test_endable () =
  (* Nothing is endable except S: 'z' always follows the others. *)
  check "S endable" true (Analysis.follow_end anl (nt g "S"));
  check "B not endable" false (Analysis.follow_end anl (nt g "B"));
  (* With a nullable tail, endability propagates down. *)
  let g3 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.t "x"; Grammar.n "A"; Grammar.n "N" ] ]);
        ("A", [ [ Grammar.t "a" ] ]);
        ("N", [ [] ]);
      ]
  in
  let anl3 = Analysis.make g3 in
  check "A endable through nullable N" true (Analysis.follow_end anl3 (nt g3 "A"));
  check "N endable" true (Analysis.follow_end anl3 (nt g3 "N"))

let test_measure_on_corpus () =
  (* Lemmas 4.2-4.4 at corpus scale: every step of a real MiniPython parse
     strictly decreases the measure. *)
  let open Costar_langs in
  let lang = Minipy.lang in
  let mg = Lang.grammar lang in
  let p = Costar_core.Parser.make mg in
  let toks = Lang.tokenize_exn lang (Lang.generate lang ~seed:77 ~size:40) in
  let prev = ref None in
  let ok = ref true in
  let steps = ref 0 in
  (match
     Util.run p
       ~inspect:(fun ctx st ->
         incr steps;
         let m = Costar_core.Measure.meas mg ctx st in
         (match !prev with
         | Some m' -> ok := !ok && Costar_core.Measure.compare m m' < 0
         | None -> ());
         prev := Some m)
       toks
   with
  | Costar_core.Parser.Unique _ -> ()
  | r -> Alcotest.failf "corpus parse failed: %a" (Costar_core.Parser.pp_result mg) r);
  check "hundreds of steps" true (!steps > 200);
  check "strictly decreasing throughout" true !ok

let suite =
  [
    Alcotest.test_case "nullable_seq" `Quick test_nullable_seq;
    Alcotest.test_case "first_seq" `Quick test_first_seq;
    Alcotest.test_case "follow chains" `Quick test_follow_chain;
    Alcotest.test_case "caller positions" `Quick test_callers_positions;
    Alcotest.test_case "caller dedup" `Quick test_callers_dedup;
    Alcotest.test_case "endable propagation" `Quick test_endable;
    Alcotest.test_case "measure at corpus scale" `Quick test_measure_on_corpus;
  ]

let () = Alcotest.run "costar_analysis" [ ("analysis", suite) ]
